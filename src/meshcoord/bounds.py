"""Suboptimality bounds for coordination outcomes, certified against brute force.

Every bound is a lower bound on the value achieved by the distributed greedy
rule, and each bound function is the paper's closed form in measured terms:
the optimum f(opt), the objective's curvature kappa, and either the coin sum
of the communication topology (apriori_bound, approx_greedy_bound) or the
per-agent commit contexts recorded in the outcome (aposteriori_bound);
curvature_only_bound needs neither. The caller measures the terms once, with
brute_force_optimum, curvature and coin_sum, and passes them to every
formula that needs them. bound_report measures them all for one outcome:
on small instances the optimum comes from the brute-force oracle and the
report is certified; large instances may substitute a surrogate optimum and
are flagged uncertified.
"""

from __future__ import annotations

from dataclasses import dataclass

from meshcoord.coordination import CoordinationOutcome, brute_force_optimum
from meshcoord.objective import _EXHAUSTIVE_LIMIT, Objective, _table_terms, _UnionMaskObjective, curvature
from meshcoord.topology import MeshGraph, is_complete


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one outcome, plus the measures behind them.

    certified is True when optimum_value came from the exhaustive oracle;
    c_total and curvature_only are None when the ground set exceeds the
    exhaustive-check guard.
    """

    algorithm_value: float
    optimum_value: float
    apriori: float
    apriori_centralized: float
    apriori_decentralized_floor: float
    aposteriori: float
    approx_greedy: float
    curvature_only: float | None
    coin_sum: float
    kappa: float
    c_total: float | None
    eta: float
    certified: bool


def coin_sum(obj: Objective, g: MeshGraph, actions) -> float:
    """Sum over agents of the information their non-neighbors already hold.

    Charges three evaluations per agent, as coin does; coverage objectives
    count every term from per-cell cover counts instead of evaluating it.
    """
    if g.n != obj.n_agents:
        raise ValueError("graph and objective disagree on the number of agents")
    obj._check_actions(actions)
    return sum(obj._coins(actions, g.in_neighbors))


def apriori_bound(opt: float, kappa: float, coins: float) -> float:
    """[f(opt) - kappa * coin_sum] / (1 + kappa).

    On a complete graph the coin sum vanishes and this reduces to
    f(opt) / (1 + kappa). Valid for monotone submodular 2nd-order-submodular
    objectives.
    """
    return (opt - kappa * coins) / (1.0 + kappa)


def aposteriori_bound(obj: Objective, outcome: CoordinationOutcome, opt: float, kappa: float) -> float:
    """f(opt) - kappa * sum_i f(a_i | actions of i's recorded commit context).

    Uses the contexts each agent actually conditioned on, so it needs an
    outcome that recorded them; 2nd-order submodularity is not required.
    Raises ValueError, as coin_sum does, unless outcome.actions[i] is an
    action of agent i for every agent i.
    """
    obj._check_actions(outcome.actions)
    if outcome.committed_in_neighbors is None:
        raise ValueError("outcome does not record per-agent commit contexts")
    total = 0.0
    for i, a_i in enumerate(outcome.actions):
        ctx = obj.context(outcome.actions[j] for j in outcome.committed_in_neighbors[i])
        obj.eval_count += 2  # f(ctx + a_i) and f(ctx)
        total += obj._value_in(ctx, (a_i,)) - obj._value_in(ctx, ())
    return opt - kappa * total


def approx_greedy_bound(opt: float, kappa: float, coins: float, eta: float) -> float:
    """Bound for eta-approximate local greedy steps.

    eta / (1 + eta*kappa) * [f(opt) - (1/eta - 1 + kappa) * coin_sum];
    at eta = 1 this coincides with apriori_bound.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")
    return eta / (1.0 + eta * kappa) * (opt - (1.0 / eta - 1.0 + kappa) * coins)


def curvature_only_bound(opt: float, complete: bool, submodular: bool, k: float) -> float:
    """Topology-and-curvature-only bound, no coin or context terms.

    Submodular objectives, with k the curvature: f(opt) / (1 + k) on a
    complete graph, else (1 - k) * f(opt). Non-submodular monotone
    objectives, with k the total curvature c: (1-c) / (1 + c - c^2) * f(opt)
    on a complete graph, else (1-c)^2 * f(opt).
    """
    if submodular:
        return opt / (1.0 + k) if complete else (1.0 - k) * opt
    if complete:
        return (1.0 - k) / (1.0 + k - k * k) * opt
    return (1.0 - k) ** 2 * opt


def bound_report(
    obj: Objective,
    g: MeshGraph,
    outcome: CoordinationOutcome,
    eta: float = 1.0,
    optimum_value: float | None = None,
) -> BoundReport:
    """Evaluates every bound for one outcome.

    optimum_value left as None runs the brute-force oracle and marks the
    report certified; passing a surrogate (e.g. a sequential-greedy value on
    instances beyond the oracle guard) marks it uncertified. Up to 16 ground
    elements, the total curvature comes from one subset table, charged 2^m
    evaluations for m elements, and so does the submodularity check, which
    coverage objectives skip since their class states it (see _table_terms).
    A coverage objective that counts whole cells (cell_area 1.0) builds no
    table: each element's least gain in it is the cells only that element
    covers and its greatest is its own count, the very integers kappa
    divides, so c_total is kappa; the 2^m evaluations are still charged,
    as if the table were built. Past the guard c_total and curvature_only
    are left out, uncharged.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")
    certified = optimum_value is None
    opt = brute_force_optimum(obj)[1] if certified else optimum_value
    kappa = curvature(obj)
    coins = coin_sum(obj, g, outcome.actions)

    c_total = curvature_only = None
    m = sum(obj.action_counts)
    if m <= _EXHAUSTIVE_LIMIT:
        if isinstance(obj, _UnionMaskObjective) and obj.cell_area == 1.0:
            obj.eval_count += 1 << m  # the table's charge, as subset_value_table makes it
            c_total, submodular = kappa, True
        else:
            c_total, submodular = _table_terms(obj, check_submodular=not obj._known_submodular)
        k = kappa if submodular else c_total
        curvature_only = curvature_only_bound(opt, is_complete(g), submodular, k)

    return BoundReport(
        algorithm_value=outcome.value,
        optimum_value=opt,
        apriori=apriori_bound(opt, kappa, coins),
        apriori_centralized=opt / (1.0 + kappa),
        apriori_decentralized_floor=(1.0 - kappa) * opt,
        aposteriori=aposteriori_bound(obj, outcome, opt, kappa),
        approx_greedy=approx_greedy_bound(opt, kappa, coins, eta),
        curvature_only=curvature_only,
        coin_sum=coins,
        kappa=kappa,
        c_total=c_total,
        eta=eta,
        certified=certified,
    )
