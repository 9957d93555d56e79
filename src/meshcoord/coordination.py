"""Decision rules: resource-aware distributed greedy, sequential greedy and its
DAG/DFS variants, a brute-force optimum, and a random baseline.

All rules are deterministic given their inputs (and seed, where one exists)
and return a fully instrumented CoordinationOutcome. Evaluation counts follow
each rule's documented cost model exactly; the timing module converts them,
together with the round structure, into simulated decision time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from meshcoord.objective import GroundElement, Objective
from meshcoord.topology import InfoDag, MeshGraph, dfs_order, full_access_dag, shortest_hops

BRUTE_FORCE_LIMIT = 10_000_000

TIE_BREAKS = ("max-gain-lowest-id", "min-gain-highest-id")


@dataclass(frozen=True)
class IterationEvent:
    """One synchronous round of the distributed rule."""

    iteration: int
    recomputed: frozenset[int]
    gains_exchanged: bool
    selectors: frozenset[int]
    broadcast_occurred: bool


@dataclass(frozen=True)
class CoordinationOutcome:
    """Joint selection plus the instrumentation the timing and bound layers need.

    selection_order[i] is the iteration (1-based) in which agent i committed;
    for sequential rules it is the agent's position in the decision order.
    committed_in_neighbors[i] is the set of agents whose actions agent i had
    folded into its context when it committed (None for rules that condition
    on nothing, like the random baseline). relay_action_transmissions counts
    actions-carried x hops over all hand-off messages of sequential rules.
    """

    algorithm: str
    actions: tuple[GroundElement, ...]
    value: float
    selection_order: tuple[int, ...]
    events: tuple[IterationEvent, ...]
    eval_counts: tuple[int, ...]
    gain_rounds: int
    action_rounds: int
    relay_action_transmissions: int
    committed_in_neighbors: tuple[frozenset[int], ...] | None


def _pick(agent: int, values: list[float]) -> tuple[float, GroundElement]:
    """The best of an agent's menu scores, taken by the lowest action id among the maxima.

    A NaN after the first score is skipped, as max skips it; max keeps a
    leading NaN, which no score equals, so that raises instead.
    """
    best = max(values)
    if best != best:
        raise ValueError(f"agent {agent}: action 0 scores nan; the greedy step needs a non-NaN best score")
    idx = values.index(best)
    return values[idx], GroundElement(agent, idx)


def run_rag(
    obj: Objective,
    g: MeshGraph,
    tie_break: str = "max-gain-lowest-id",
    eta: float = 1.0,
    rng=None,
) -> CoordinationOutcome:
    """Synchronized-round distributed greedy with local winner commits.

    Per iteration every undecided agent whose context changed (or that has
    not computed yet) re-runs its local greedy over its menu, scoring each
    action by the augmented-context value f(A_i + a). Comparing these scores
    is order-equivalent to comparing marginal gains within any shared context
    and needs no separate evaluation of f(A_i), so a recomputation costs
    exactly |V_i| evaluations. Undecided agents with undecided in-neighbors
    then exchange scores (one scalar round); an agent commits iff it is the
    strict winner over itself and those neighbors under tie_break
    ("max-gain-lowest-id" by default; "min-gain-highest-id" inverts both
    comparisons and exists as a corruption hook for verification). Committers
    broadcast their action to out-neighbors (one action round when any
    receiver is still undecided). Each agent's context is one state that
    grows, by a free extend, as each commit arrives while it is undecided.

    eta < 1 switches the local step to approximate greedy: the agent picks
    uniformly (via rng) among actions whose true marginal gain is at least
    eta times the best one. True gains require f(A_i), so this mode charges
    one extra evaluation per recomputation with a non-empty context; the
    default mode's per-agent eval bound does not apply to it.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}; expected one of {TIE_BREAKS}")
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")
    if eta < 1 and rng is None:
        raise ValueError("approximate-greedy mode needs an rng")
    n = obj.n_agents
    if g.n != n:
        raise ValueError("graph and objective disagree on the number of agents")

    ins = g.in_neighbors
    undecided = set(range(n))
    # each agent's context state, grown by the commits it receives, and their senders
    state = [obj.context()] * n
    heard: list[list[int]] = [[] for _ in range(n)]
    dirty = [True] * n
    bid: list[tuple[float, int] | None] = [None] * n
    choice: list[GroundElement | None] = [None] * n
    committed_at = [0] * n
    eval_counts = [0] * n
    events: list[IterationEvent] = []
    beats = operator.lt if tie_break == "min-gain-highest-id" else operator.gt

    while undecided:
        iteration = len(events) + 1
        recomputed = frozenset(i for i in undecided if dirty[i])
        for i in recomputed:
            values = obj._menu_values(i, state[i])
            eval_counts[i] += obj.action_counts[i]
            if eta < 1:
                ctx_value = 0.0
                if heard[i]:
                    ctx_value = obj.evaluate((), state[i])
                    eval_counts[i] += 1
                best_gain = max(values) - ctx_value
                if not best_gain >= 0:
                    raise ValueError(
                        f"agent {i}: best marginal gain is {best_gain!r}; approximate"
                        " greedy (eta < 1) needs non-negative, non-NaN gains"
                    )
                eligible = [a for a, v in enumerate(values) if v - ctx_value >= eta * best_gain]
                a = eligible[rng.randrange(len(eligible))]
                value, choice[i] = values[a], GroundElement(i, a)
            else:
                value, choice[i] = _pick(i, values)
            bid[i] = (value, -i)
            dirty[i] = False

        gains_exchanged = any(not undecided.isdisjoint(ins[i]) for i in undecided)
        selectors = frozenset(
            i for i in undecided if all(beats(bid[i], bid[j]) for j in ins[i] if j in undecided)
        )

        undecided -= selectors
        broadcast = False
        for i in selectors:
            committed_at[i] = iteration
            for j in g.out_neighbors[i] & undecided:
                state[j] = obj.extend(state[j], choice[i])
                heard[j].append(i)
                dirty[j] = True
                broadcast = True

        events.append(IterationEvent(iteration, recomputed, gains_exchanged, selectors, broadcast))

    actions = tuple(choice)
    return CoordinationOutcome(
        algorithm="rag",
        actions=actions,
        value=obj.evaluate(actions),
        selection_order=tuple(committed_at),
        events=tuple(events),
        eval_counts=tuple(eval_counts),
        gain_rounds=sum(1 for ev in events if ev.gains_exchanged),
        action_rounds=sum(1 for ev in events if ev.broadcast_occurred),
        relay_action_transmissions=0,
        committed_in_neighbors=tuple(map(frozenset, heard)),
    )


def _run_sequential(
    algorithm: str,
    obj: Objective,
    dag: InfoDag,
    g: MeshGraph | None,
    relayed: bool,
) -> CoordinationOutcome:
    """One agent at a time in dag.order, each conditioning on its access set.

    An agent that sees every predecessor scores against the running state
    (one free extend per commit), any other against a state built from its
    access set; either way it costs |V_i| evaluations. Each hand-off relays
    all commits so far along g's shortest directed path, or one hop without
    a graph. relayed=False is the value-level rule: no relay model, and the
    value, which no agent learns, is evaluated once at the end.
    """
    n = obj.n_agents
    chosen: dict[int, GroundElement] = {}
    running = obj.context()
    relay = 0
    events: list[IterationEvent] = []
    for pos, i in enumerate(dag.order):
        if pos > 0 and relayed:
            src = dag.order[pos - 1]
            hops = 1 if g is None else shortest_hops(g, src, i)
            if hops is None:
                raise ValueError(f"no directed path from agent {src} to agent {i} for the hand-off")
            relay += pos * hops
        access = dag.access[pos]
        state = running if len(access) == pos else obj.context(chosen[j] for j in access)
        value, chosen[i] = _pick(i, obj._menu_values(i, state))
        running = obj.extend(running, chosen[i])
        events.append(IterationEvent(pos + 1, frozenset([i]), False, frozenset([i]), pos + 1 < n))

    actions = tuple(chosen[i] for i in range(n))
    positions = sorted(range(n), key=dag.order.__getitem__)  # agent i decides at positions[i]
    return CoordinationOutcome(
        algorithm=algorithm,
        actions=actions,
        value=value if relayed else obj.evaluate(actions),
        selection_order=tuple(pos + 1 for pos in positions),
        events=tuple(events),
        eval_counts=obj.action_counts,  # each agent scores its whole menu once
        gain_rounds=0,
        action_rounds=n - 1,
        relay_action_transmissions=relay,
        committed_in_neighbors=tuple(dag.access[pos] for pos in positions),
    )


def run_sg(
    obj: Objective,
    order: Sequence[int],
    g: MeshGraph | None = None,
) -> CoordinationOutcome:
    """Sequential greedy: each agent maximizes the gain over all predecessors.

    With a graph, each hand-off from one decider to the next relays the
    accumulated actions along the shortest directed path, contributing
    (actions carried) x (hops) transmissions; without one the deciders are
    assumed adjacent (one hop per hand-off). The running value is known after
    every pick, so each agent costs exactly |V_i| evaluations. The exact hops
    take one breadth-first search per hand-off: up to Θ(n · edges) wall time
    on a geometric mesh.
    """
    order = list(order)
    if sorted(order) != list(range(obj.n_agents)):
        raise ValueError("order must be a permutation of all agents")
    if g is not None and g.n != obj.n_agents:
        raise ValueError("graph and objective disagree on the number of agents")
    return _run_sequential("sg", obj, full_access_dag(order), g, relayed=True)


def run_dsm(obj: Objective, dag: InfoDag) -> CoordinationOutcome:
    """Sequential rule with partial predecessor access per the InfoDag.

    Value-level only: no relay model (relay_action_transmissions stays 0;
    full-access DAGs reproduce run_sg's selections and value but not its
    hand-off accounting). The conditioning value f(A_access) is unknown to
    the agent, so scoring uses augmented-context values, |V_i| evaluations
    per agent, and the outcome value is evaluated once at the end.
    """
    if len(dag.order) != obj.n_agents:
        raise ValueError("dag and objective disagree on the number of agents")
    return _run_sequential("dsm", obj, dag, None, relayed=False)


def run_dfs_sg(obj: Objective, g: MeshGraph, start: int) -> CoordinationOutcome:
    """Sequential greedy in depth-first preorder of g, with relay accounting on g."""
    dag = dfs_order(g, start)
    if g.n != obj.n_agents:  # the walk's order covers g's agents
        raise ValueError("order must be a permutation of all agents")
    return _run_sequential("dfs-sg", obj, dag, g, relayed=True)


def run_random_baseline(obj: Objective, rng) -> CoordinationOutcome:
    """Uniform random action per agent; no evaluations charged to any agent."""
    n = obj.n_agents
    actions = tuple(GroundElement(i, rng.randrange(c)) for i, c in enumerate(obj.action_counts))
    return CoordinationOutcome(
        algorithm="random",
        actions=actions,
        value=obj.evaluate(actions),
        selection_order=tuple(1 for _ in range(n)),
        events=(),
        eval_counts=tuple(0 for _ in range(n)),
        gain_rounds=0,
        action_rounds=0,
        relay_action_transmissions=0,
        committed_in_neighbors=None,
    )


def brute_force_optimum(obj: Objective) -> tuple[tuple[GroundElement, ...], float]:
    """Exhaustive maximum over the action product; ties to the lexicographically
    smallest action vector. Guarded at 10^7 joint selections."""
    size = math.prod(obj.action_counts)
    if size > BRUTE_FORCE_LIMIT:
        raise ValueError(f"action product of {size} exceeds the brute-force limit of {BRUTE_FORCE_LIMIT}")
    best_value = -math.inf
    best: tuple[GroundElement, ...] = ()
    for combo in product(*map(obj.actions, range(obj.n_agents))):
        value = obj.evaluate(combo)
        if value > best_value:
            best_value = value
            best = combo
    return best, best_value
