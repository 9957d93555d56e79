import dataclasses
import math
import random
import re
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coverage_instance
from meshcoord.coordination import (
    CoordinationOutcome,
    run_dfs_sg,
    run_dsm,
    run_rag,
    run_random_baseline,
    run_sg,
)
from meshcoord.instances import reference_line_instance, reference_star_instance
from meshcoord.objective import CallableObjective
from meshcoord.timing import (
    DelayModel,
    decision_time,
    rag_time_bound,
    tau_c_from_rate,
)
from meshcoord.topology import (
    complete_graph,
    edgeless_graph,
    full_access_dag,
    line_graph,
    strongly_connected_line_plus,
)

# all three delays are powers of two, so the reference sums are float-exact
EXACT = DelayModel(tau_f=2**-10, tau_c=2**-1, tau_hash=2**-13)


def test_tau_c_reference_rates():
    # 25 KiB at 0.25 Mbps happens to be representable exactly
    assert tau_c_from_rate(25 * 1024, 0.25e6) == 0.8192
    assert round(tau_c_from_rate(25 * 1024, 100e6), 4) == 0.002


def test_tau_c_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        tau_c_from_rate(0, 1e6)
    with pytest.raises(ValueError):
        tau_c_from_rate(1024, 0.0)


def test_delay_model_validation_and_rate_constructor():
    with pytest.raises(ValueError):
        DelayModel(tau_f=-0.001, tau_c=0.1, tau_hash=0.0)
    dm = DelayModel(tau_f=0.001, tau_c=tau_c_from_rate(25 * 1024, 0.25e6), tau_hash=0.000256)
    assert dm.tau_c == 0.8192


@pytest.mark.parametrize("field", ["tau_f", "tau_c", "tau_hash"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_delay_model_rejects_non_finite_delays_by_name(field, value):
    delays = {"tau_f": 0.001, "tau_c": 0.1, "tau_hash": 0.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        DelayModel(**delays)


@pytest.mark.parametrize("field", ["tau_f", "tau_c", "tau_hash"])
def test_delay_model_names_an_int_past_the_float_range(field):
    delays = {"tau_f": 0.001, "tau_c": 0.1, "tau_hash": 0.0, field: 10**400}
    with pytest.raises(ValueError, match=f"^{field} is past the float range$"):
        DelayModel(**delays)


def test_tau_c_names_an_int_past_the_float_range():
    with pytest.raises(ValueError, match="^message size is past the float range$"):
        tau_c_from_rate(10**400, 1.0)
    with pytest.raises(ValueError, match="^data rate is past the float range$"):
        tau_c_from_rate(1024, 10**400)


def test_rate_constructor_rejects_an_overflowing_tau_c():
    with pytest.raises(ValueError, match="tau_c must be a finite number, got inf"):
        DelayModel(tau_f=0.001, tau_c=tau_c_from_rate(1e308, 1.0), tau_hash=0.0)


def test_reference_line_decision_time_is_exact():
    obj, g, _ = reference_line_instance()
    out = run_rag(obj, g)
    # two recomputations of a 4-action menu, one gain round, one action round
    expected = 2 * 4 * EXACT.tau_f + EXACT.tau_c + EXACT.tau_hash
    assert decision_time(out, EXACT).seconds == expected


def test_reference_star_decision_time_is_exact():
    obj, g, _ = reference_star_instance()
    out = run_rag(obj, g)
    expected = 2 * 4 * EXACT.tau_f + EXACT.tau_c + EXACT.tau_hash
    assert decision_time(out, EXACT).seconds == expected


def test_staggered_commits_charge_the_busiest_agent_not_each_iteration():
    # modular weights force one commit per iteration down the line; agent 0
    # recomputes once, everyone else twice, across five iterations
    weights = {(i, 0): w for i, w in enumerate([5.0, 4.0, 3.0, 2.0, 1.0])}
    obj = CallableObjective([1] * 5, lambda s: sum(weights[e] for e in s))
    out = run_rag(obj, line_graph(5))
    assert out.selection_order == (1, 2, 3, 4, 5)
    assert out.eval_counts == (1, 2, 2, 2, 2)
    assert out.gain_rounds == 4 and out.action_rounds == 4

    unit = DelayModel(tau_f=1.0, tau_c=1.0, tau_hash=1.0)
    t = decision_time(out, unit).seconds
    bound = rag_time_bound(line_graph(5), unit, [1] * 5)
    # summing the slowest recomputation per iteration would give 13 here,
    # which overshoots the worst-case bound; the busiest agent gives 10
    assert t == 10.0
    assert bound == 11.0
    assert t <= bound


def test_rag_decision_time_rejects_other_algorithms():
    obj, g, _ = reference_line_instance()
    rag = run_rag(obj, g)
    sg = run_sg(obj, [0, 1, 2, 3, 4], g=g)
    # the reference formula below refuses a sequential-greedy outcome ...
    with pytest.raises(ValueError):
        rag_decision_time(sg, EXACT, [4] * 5)
    # ... and decision_time refuses a distributed-greedy trace it has no model for
    with pytest.raises(ValueError, match="no time model"):
        decision_time(dataclasses.replace(rag, algorithm="annealing"), EXACT)


def test_decision_time_sg_line_natural_order():
    obj, g, _ = reference_line_instance()
    out = run_sg(obj, [0, 1, 2, 3, 4], g=g)
    # every agent evaluates its 4 actions once; 10 relayed action messages
    assert decision_time(out, EXACT).seconds == 20 * EXACT.tau_f + 10 * EXACT.tau_c


def test_sg_decision_time_rejects_other_algorithms():
    obj, g, _ = reference_line_instance()
    rag = run_rag(obj, g)
    sg = run_sg(obj, [0, 1, 2, 3, 4], g=g)
    # the reference formula below refuses a distributed-greedy outcome ...
    with pytest.raises(ValueError):
        sg_decision_time(rag, EXACT, [4] * 5)
    # ... and decision_time refuses a sequential trace it has no model for
    with pytest.raises(ValueError, match="no time model"):
        decision_time(dataclasses.replace(sg, algorithm="annealing"), EXACT)


def test_time_bound_line_five_with_unit_delays():
    unit = DelayModel(tau_f=1.0, tau_c=1.0, tau_hash=1.0)
    # interior agents have 2 neighbours: 8 * 3 = 24 compute, plus 2 * 4 comms
    assert rag_time_bound(line_graph(5), unit, [8] * 5) == 32.0


def test_time_bound_complete_four_compute_term():
    dm = DelayModel(tau_f=0.5, tau_c=0.0, tau_hash=0.0)
    # 3 actions * (3 neighbours + 1) = 12 evaluations on every agent
    assert rag_time_bound(complete_graph(4), dm, [3] * 4) == 6.0


def test_time_bound_edgeless_graph_drops_the_round_terms():
    unit = DelayModel(tau_f=1.0, tau_c=1.0, tau_hash=1.0)
    assert rag_time_bound(edgeless_graph(3), unit, [4, 4, 4]) == 4.0


@pytest.mark.parametrize("counts, bad", [([2.9, 1], "[0] is 2.9"), ([1, True], "[1] is True"), (["3", 1], "[0] is '3'")])
def test_time_bound_rejects_action_counts_that_are_not_ints_by_position(counts, bad):
    # int() would charge 2.9 actions as 2
    with pytest.raises(ValueError, match=rf"^per_agent_action_count{re.escape(bad)}, which is not an int$"):
        rag_time_bound(line_graph(2), EXACT, counts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_simulated_time_never_exceeds_the_bound(seed):
    obj, g = coverage_instance(seed)
    out = run_rag(obj, g)
    dm = DelayModel(tau_f=0.001, tau_c=0.8192, tau_hash=0.000256)
    t = decision_time(out, dm).seconds
    assert t <= rag_time_bound(g, dm, obj.action_counts) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_decision_time_decomposes_into_the_three_terms(seed):
    obj, g = coverage_instance(seed)
    out = run_rag(obj, g)
    counts = list(obj.action_counts)
    recomputations = [0] * obj.n_agents
    for ev in out.events:
        for i in ev.recomputed:
            recomputations[i] += 1
    compute = max(r * c for r, c in zip(recomputations, counts))
    dm = DelayModel(tau_f=0.25, tau_c=0.5, tau_hash=0.125)
    expected = (dm.tau_f * compute + dm.tau_hash * out.gain_rounds
                + dm.tau_c * out.action_rounds)
    assert math.isclose(decision_time(out, dm).seconds, expected,
                        rel_tol=1e-12)


# --- the per-rule time formulas that decision_time replaced, kept verbatim as
# the reference for the differential test below


def _action_counts(outcome: CoordinationOutcome, per_agent_action_count: Sequence[int]) -> list[int]:
    counts = [int(c) for c in per_agent_action_count]
    if len(counts) != len(outcome.eval_counts):
        raise ValueError("need one action count per agent")
    if any(c < 1 for c in counts):
        raise ValueError("action counts must be positive")
    return counts


def rag_decision_time(
    outcome: CoordinationOutcome,
    dm: DelayModel,
    per_agent_action_count: Sequence[int],
) -> float:
    if outcome.algorithm != "rag":
        raise ValueError(f"expected a distributed-greedy outcome, got {outcome.algorithm!r}")
    counts = _action_counts(outcome, per_agent_action_count)
    recomputations = [0] * len(counts)
    for ev in outcome.events:
        for i in ev.recomputed:
            recomputations[i] += 1
    busiest = max(r * c for r, c in zip(recomputations, counts))
    return dm.tau_f * busiest + dm.tau_hash * outcome.gain_rounds + dm.tau_c * outcome.action_rounds


def sg_decision_time(
    outcome: CoordinationOutcome,
    dm: DelayModel,
    per_agent_action_count: Sequence[int],
) -> float:
    if outcome.algorithm not in ("sg", "dfs-sg"):
        raise ValueError(f"expected a sequential-greedy outcome, got {outcome.algorithm!r}")
    counts = _action_counts(outcome, per_agent_action_count)
    return dm.tau_f * sum(counts) + dm.tau_c * outcome.relay_action_transmissions


def reference_time(outcome, dm, counts) -> float:
    """The old mission-layer dispatch: two functions, an inline dsm formula, 0.0."""
    if outcome.algorithm == "rag":
        return rag_decision_time(outcome, dm, counts)
    if outcome.algorithm in ("sg", "dfs-sg"):
        return sg_decision_time(outcome, dm, counts)
    if outcome.algorithm == "dsm":
        return dm.tau_f * sum(counts)
    return 0.0


def five_rule_outcomes(obj, g, seed):
    n = obj.n_agents
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    outcomes = [
        run_rag(obj, g),
        run_sg(obj, order),
        run_dsm(obj, full_access_dag(order)),
        run_random_baseline(obj, rng),
    ]
    if n >= 2:
        mesh = strongly_connected_line_plus(n, min(2, n * (n - 1) // 2 - (n - 1)), seed=seed)
        outcomes.append(run_sg(obj, order, g=mesh))
        outcomes.append(run_dfs_sg(obj, mesh, rng.randrange(n)))
    return outcomes


taus = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), taus, taus, taus)
def test_decision_time_equals_the_old_formulas_for_every_rule(seed, tau_f, tau_c, tau_hash):
    obj, g = coverage_instance(seed)
    dm = DelayModel(tau_f=tau_f, tau_c=tau_c, tau_hash=tau_hash)
    counts = list(obj.action_counts)
    rules = set()
    for out in five_rule_outcomes(obj, g, seed):
        rules.add(out.algorithm)
        t = decision_time(out, dm)
        assert t.seconds == reference_time(out, dm, counts), out.algorithm
        # the coefficients rebuild the seconds term by term
        assert t.seconds == (
            dm.tau_f * t.tau_f_coefficient
            + dm.tau_hash * t.tau_hash_coefficient
            + dm.tau_c * t.tau_c_coefficient
        ), out.algorithm
    assert rules >= {"rag", "sg", "dsm", "random"}


def test_decision_time_terms_per_rule():
    obj, g, _ = reference_line_instance()
    by_rule = {out.algorithm: decision_time(out, EXACT) for out in five_rule_outcomes(obj, g, 3)}
    assert by_rule["rag"].tau_f_coefficient == 8  # two recomputations of a 4-action menu
    assert (by_rule["rag"].tau_c_coefficient, by_rule["rag"].tau_hash_coefficient) == (1, 1)
    for rule in ("sg", "dfs-sg"):
        assert by_rule[rule].tau_f_coefficient == 20
        assert by_rule[rule].tau_hash_coefficient == 0
    assert (by_rule["dsm"].tau_f_coefficient, by_rule["dsm"].tau_c_coefficient) == (20, 0)
    assert by_rule["random"] == decision_time(run_random_baseline(obj, random.Random(0)), EXACT)
    assert by_rule["random"].seconds == 0.0


def test_eta_below_one_charges_the_context_evaluation():
    # approximate greedy evaluates f(A_i) once per recomputation with a non-empty
    # context; the charged compute is the busiest agent's recorded evaluations
    obj, g, _ = reference_line_instance()
    out = run_rag(obj, g, eta=0.5, rng=random.Random(0))
    # round two's agents score their 4 actions twice, once with a context: 4 + 4 + 1
    assert out.eval_counts == (9, 4, 9, 4, 9)
    t = decision_time(out, EXACT)
    assert t.tau_f_coefficient == max(out.eval_counts) == 9  # not 2 recomputations x 4
    assert t.seconds == 9 * EXACT.tau_f + EXACT.tau_c + EXACT.tau_hash


@pytest.mark.parametrize("counts,message", [([4] * 4, "one action count per agent"),
                                            ([4, 4, 0, 4, 4], "must be positive")])
def test_decision_time_and_time_bound_share_the_count_check(counts, message):
    # decision_time takes no counts since it charges the outcome's eval_counts
    _, g, _ = reference_line_instance()
    with pytest.raises(ValueError, match=message):
        rag_time_bound(g, EXACT, counts)
