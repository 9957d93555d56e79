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
from dataclasses import dataclass, replace
from itertools import chain, product
from typing import Sequence

from meshcoord.objective import GroundElement, Objective
from meshcoord.topology import InfoDag, MeshGraph, _int_values, dfs_order, full_access_dag, shortest_hops

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


def _schedule(algorithm: str, dag: InfoDag, g: MeshGraph | None) -> dict:
    """The keyword fields of a sequential outcome that follow from the DAG and g alone.

    Checked before any agent scores. In sg and dfs-sg each hand-off relays
    all commits so far along g's shortest directed path, one breadth-first
    search each, or one hop without a graph; an unreachable hand-off raises
    here. dsm relays nothing: it is the value-level rule and models no
    hand-off.
    """
    order = dag.order
    n = len(order)
    relay = 0
    for pos in range(1, n) if algorithm != "dsm" else ():
        src, i = order[pos - 1], order[pos]
        hops = 1 if g is None else shortest_hops(g, src, i)
        if hops is None:
            raise ValueError(f"no directed path from agent {src} to agent {i} for the hand-off")
        relay += pos * hops
    events = []
    for pos, i in enumerate(order):
        agent = frozenset([i])
        events.append(IterationEvent(pos + 1, agent, False, agent, pos + 1 < n))
    positions = sorted(range(n), key=order.__getitem__)  # agent i decides at positions[i]
    return dict(
        algorithm=algorithm,
        selection_order=tuple(pos + 1 for pos in positions),
        events=tuple(events),
        gain_rounds=0,
        action_rounds=n - 1,
        relay_action_transmissions=relay,
        committed_in_neighbors=tuple(dag.access[pos] for pos in positions),
    )


def _run_sequential(obj: Objective, schedule: dict) -> CoordinationOutcome:
    """One agent at a time, each conditioning on its access set; schedule is _schedule's fields.

    The agent deciding at each position is that event's one selector. An
    agent that sees every predecessor scores against the running state
    (one free extend per commit), any other against a state built from its
    access set; either way it costs |V_i| evaluations. dsm's value, which
    no agent learns because nothing is relayed, is evaluated once at the end.
    """
    access = schedule["committed_in_neighbors"]
    chosen: list[GroundElement | None] = [None] * obj.n_agents
    running = obj.context()
    for pos, event in enumerate(schedule["events"]):
        (i,) = event.selectors
        state = running if len(access[i]) == pos else obj.context(chosen[j] for j in access[i])
        value, chosen[i] = _pick(i, obj._menu_values(i, state))
        running = obj.extend(running, chosen[i])
    actions = tuple(chosen)
    if schedule["algorithm"] == "dsm":
        value = obj.evaluate(actions)
    # eval_counts: each agent scored its whole menu once
    return CoordinationOutcome(actions=actions, value=value, eval_counts=obj.action_counts, **schedule)


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
    on a geometric mesh. The schedule (order, events and relay count) is
    built first, so a hand-off with no directed path raises before any agent
    scores and charges nothing.
    """
    order = list(order)
    if sorted(order) != list(range(obj.n_agents)):
        raise ValueError("order must be a permutation of all agents")
    if g is not None and g.n != obj.n_agents:
        raise ValueError("graph and objective disagree on the number of agents")
    return _run_sequential(obj, _schedule("sg", full_access_dag(order), g))


def run_dsm(obj: Objective, dag: InfoDag) -> CoordinationOutcome:
    """Sequential rule with partial predecessor access per the InfoDag.

    Value-level only: each agent reads its access set's actions with no
    message model behind them, so dsm relays nothing
    (relay_action_transmissions stays 0; full-access DAGs reproduce run_sg's
    selections and value but not its hand-off accounting). The conditioning
    value f(A_access) is unknown to the agent, so scoring uses
    augmented-context values, |V_i| evaluations per agent, and the outcome
    value is evaluated once at the end. Access ids are any integer type but
    bool, stored as int.
    """
    if len(dag.order) != obj.n_agents:
        raise ValueError("dag and objective disagree on the number of agents")
    if not set(map(type, chain.from_iterable(dag.access))) <= {int}:  # the type check runs at C speed
        access = (frozenset(_int_values(ids, f"access at position {pos} holds")) for pos, ids in enumerate(dag.access))
        dag = replace(dag, access=tuple(access))
    return _run_sequential(obj, _schedule("dsm", dag, None))


def run_dfs_sg(obj: Objective, g: MeshGraph, start: int) -> CoordinationOutcome:
    """Sequential greedy in depth-first preorder of g, with relay accounting on g.

    As in run_sg, the schedule is built first: a hand-off with no directed
    path raises before any agent scores and charges nothing.
    """
    if g.n != obj.n_agents:  # checked before the walk, which costs Θ(n²) for its DAG
        raise ValueError("graph and objective disagree on the number of agents")
    return _run_sequential(obj, _schedule("dfs-sg", dfs_order(g, start), g))


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
    smallest action vector. Guarded at 10^7 joint selections. A NaN value
    raises ValueError naming the first joint selection, in product order,
    that has one."""
    size = math.prod(obj.action_counts)
    if size > BRUTE_FORCE_LIMIT:
        raise ValueError(f"action product of {size} exceeds the brute-force limit of {BRUTE_FORCE_LIMIT}")
    menus = [obj.actions(i) for i in range(obj.n_agents)]
    best = tuple(menu[0] for menu in menus)  # kept when every value is -inf
    best_value = -math.inf
    for combo in product(*menus):
        value = obj.evaluate(combo)
        if not value <= best_value:  # the one comparison per selection; NaN lands here too
            if math.isnan(value):
                raise ValueError(f"objective value is NaN at joint selection {combo!r}")
            best_value = value
            best = combo
    return best, best_value
