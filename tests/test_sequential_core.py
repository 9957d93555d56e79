"""Differential test: the one sequential core against the loops it replaced.

run_sg, run_dsm and run_dfs_sg used to be separate loops. They now share one
walk over an InfoDag, which scores each menu with one Objective._menu_values
call; the old loops are kept here verbatim as the reference, with the old
scoring helpers _scores and _greedy_pick, and every outcome field plus the
objective's evaluation count must match. One message changed on purpose:
where an old loop raised the bare "min() arg is an empty sequence" of a menu
whose first score is NaN, the core raises a ValueError naming the agent.
The old loops took optional per-agent menus, resolved by the copy of
_resolve_actions below; the rules now always use the objective's own menus,
so the references run with the default of None.
"""

import math
import random
import re
from dataclasses import replace
from typing import Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import windowed_mask_objective
from meshcoord.coordination import CoordinationOutcome, IterationEvent, run_dfs_sg, run_dsm, run_sg
from meshcoord.objective import CallableObjective, GroundElement, Objective, _UnionMaskObjective
from meshcoord.topology import (
    InfoDag,
    MeshGraph,
    dfs_order,
    edgeless_graph,
    full_access_dag,
    shortest_hops,
    strongly_connected_line_plus,
    worst_case_cycle,
)


def _scores(obj: Objective, menu: Sequence[GroundElement], state) -> list[tuple[float, GroundElement]]:
    """f(context + a) for each action a, one evaluation each."""
    return [(obj.evaluate((a,), state), a) for a in menu]


def _greedy_pick(values: list[tuple[float, GroundElement]]) -> tuple[float, GroundElement]:
    """The best score, taken by the lowest action id among the maxima."""
    best_value = max(v for v, _ in values)
    return min((v, a) for v, a in values if v == best_value)


def _resolve_actions(
    obj: Objective, per_agent_actions: Sequence[Sequence[GroundElement]] | None
) -> list[list[GroundElement]]:
    if per_agent_actions is None:
        return [obj.actions(i) for i in range(obj.n_agents)]
    menus = [list(m) for m in per_agent_actions]
    if len(menus) != obj.n_agents:
        raise ValueError("need one action menu per agent")
    for i, menu in enumerate(menus):
        if not menu:
            raise ValueError(f"agent {i} has an empty action menu")
        for e in menu:
            if e.agent != i:
                raise ValueError(f"menu for agent {i} contains {e}")
    return menus


def old_run_sg(
    obj: Objective,
    order: Sequence[int],
    g: MeshGraph | None = None,
    per_agent_actions: Sequence[Sequence[GroundElement]] | None = None,
) -> CoordinationOutcome:
    menus = _resolve_actions(obj, per_agent_actions)
    n = obj.n_agents
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all agents")
    if g is not None and g.n != n:
        raise ValueError("graph and objective disagree on the number of agents")

    chosen: dict[int, GroundElement] = {}
    state = obj.context()
    eval_counts = [0] * n
    committed_at = [0] * n
    committed_nbrs = [frozenset()] * n
    relay = 0
    events: list[IterationEvent] = []
    prev_value = 0.0
    for pos, i in enumerate(order):
        if pos > 0:
            hops = 1
            if g is not None:
                found = shortest_hops(g, order[pos - 1], i)
                if found is None:
                    raise ValueError(
                        f"no directed path from agent {order[pos - 1]} to agent {i} for the hand-off"
                    )
                hops = found
            relay += pos * hops
        value, action = _greedy_pick(_scores(obj, menus[i], state))
        eval_counts[i] += len(menus[i])
        committed_nbrs[i] = frozenset(chosen.keys())
        chosen[i] = action
        state = obj.extend(state, action)
        committed_at[i] = pos + 1
        prev_value = value
        events.append(
            IterationEvent(
                iteration=pos + 1,
                recomputed=frozenset([i]),
                gains_exchanged=False,
                selectors=frozenset([i]),
                broadcast_occurred=pos + 1 < n,
            )
        )

    actions = tuple(chosen[i] for i in range(n))
    return CoordinationOutcome(
        algorithm="sg",
        actions=actions,
        value=prev_value,
        selection_order=tuple(committed_at),
        events=tuple(events),
        eval_counts=tuple(eval_counts),
        gain_rounds=0,
        action_rounds=n - 1,
        relay_action_transmissions=relay,
        committed_in_neighbors=tuple(committed_nbrs),
    )


def old_run_dsm(
    obj: Objective,
    dag: InfoDag,
    per_agent_actions: Sequence[Sequence[GroundElement]] | None = None,
) -> CoordinationOutcome:
    menus = _resolve_actions(obj, per_agent_actions)
    n = obj.n_agents
    if len(dag.order) != n:
        raise ValueError("dag and objective disagree on the number of agents")

    chosen: dict[int, GroundElement] = {}
    eval_counts = [0] * n
    committed_at = [0] * n
    committed_nbrs = [frozenset()] * n
    events: list[IterationEvent] = []
    for pos, i in enumerate(dag.order):
        state = obj.context(chosen[j] for j in dag.access[pos])
        _, action = _greedy_pick(_scores(obj, menus[i], state))
        eval_counts[i] += len(menus[i])
        committed_nbrs[i] = frozenset(dag.access[pos])
        chosen[i] = action
        committed_at[i] = pos + 1
        events.append(
            IterationEvent(
                iteration=pos + 1,
                recomputed=frozenset([i]),
                gains_exchanged=False,
                selectors=frozenset([i]),
                broadcast_occurred=pos + 1 < n,
            )
        )

    actions = tuple(chosen[i] for i in range(n))
    return CoordinationOutcome(
        algorithm="dsm",
        actions=actions,
        value=obj.evaluate(actions),
        selection_order=tuple(committed_at),
        events=tuple(events),
        eval_counts=tuple(eval_counts),
        gain_rounds=0,
        action_rounds=n - 1,
        relay_action_transmissions=0,
        committed_in_neighbors=tuple(committed_nbrs),
    )


def old_run_dfs_sg(
    obj: Objective,
    g: MeshGraph,
    start: int,
    per_agent_actions: Sequence[Sequence[GroundElement]] | None = None,
) -> CoordinationOutcome:
    dag = dfs_order(g, start)
    outcome = old_run_sg(obj, dag.order, g=g, per_agent_actions=per_agent_actions)
    return replace(outcome, algorithm="dfs-sg")


def outcome_and_evals(obj: Objective, rule):
    """(outcome, evaluations charged), or the error a rule raised."""
    before = obj.eval_count
    try:
        out = rule()
    except ValueError as exc:
        return ("error", str(exc))
    return out, obj.eval_count - before


def assert_same(obj: Objective, old, new) -> None:
    """The same outcome and charge, or the same error; the old loops' bare
    error for a menu whose first score is NaN must be one naming the agent."""
    expected = outcome_and_evals(obj, old)
    got = outcome_and_evals(obj, new)
    if expected == ("error", "min() arg is an empty sequence"):
        assert got[0] == "error" and re.fullmatch(r"agent \d+: action 0 scores nan; .*", got[1])
    else:
        assert got == expected


def make_objective(kind: str, menu_sizes: list[int], rng: random.Random) -> Objective:
    if kind == "windowed":
        return windowed_mask_objective(rng, menu_sizes)
    if kind == "mask":
        return _UnionMaskObjective(
            [[rng.getrandbits(24) for _ in range(size)] for size in menu_sizes], within=(1 << 24) - 1
        )
    # integer weights plus a pairwise bonus: non-submodular, and exact sums
    # whatever order the set is iterated in
    weights = {}
    for i, size in enumerate(menu_sizes):
        for a in range(size):
            weights[GroundElement(i, a)] = rng.randrange(0, 9)
    bonus = rng.randrange(0, 4)
    return CallableObjective(
        menu_sizes, lambda s: float(sum(weights[e] for e in s) + bonus * len(s) * (len(s) - 1))
    )


def make_dag(kind: str, order: list[int], rng: random.Random) -> InfoDag:
    if kind == "full":
        return full_access_dag(order)
    access = []
    seen: list[int] = []
    n = len(order)
    mesh = edgeless_graph(n)
    if kind == "partial" and n >= 2:
        # predecessors that are in-neighbors on a random undirected mesh
        extra = rng.randrange(n * (n - 1) // 2 - (n - 1) + 1)
        mesh = strongly_connected_line_plus(n, extra, rng.randrange(99))
    for agent in order:
        if kind == "empty":
            access.append(frozenset())
        elif kind == "partial":
            access.append(frozenset(j for j in seen if j in mesh.in_neighbors[agent]))
        else:  # random: each predecessor, or all of them, or none
            p = rng.choice((0.0, 0.5, 0.9, 1.0))
            access.append(frozenset(j for j in seen if rng.random() < p))
        seen.append(agent)
    return InfoDag(order=tuple(order), access=tuple(access))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    objective=st.sampled_from(["mask", "windowed", "callable"]),
    dag_kind=st.sampled_from(["full", "partial", "empty", "random"]),
    relay=st.sampled_from(["none", "line-plus", "worst-case-cycle", "edgeless"]),
)
@example(seed=0, n=5, objective="mask", dag_kind="full", relay="worst-case-cycle")
@example(seed=1, n=4, objective="callable", dag_kind="random", relay="edgeless")
@example(seed=2, n=1, objective="callable", dag_kind="empty", relay="none")
@example(seed=3, n=6, objective="windowed", dag_kind="partial", relay="line-plus")
def test_sequential_core_matches_the_old_loops(seed, n, objective, dag_kind, relay):
    rng = random.Random(seed)
    menu_sizes = [rng.randint(1, 4) for _ in range(n)]
    obj = make_objective(objective, menu_sizes, rng)
    order = list(range(n))
    rng.shuffle(order)
    g = None
    if relay == "line-plus" and n >= 2:
        g = strongly_connected_line_plus(n, rng.randrange(min(3, n * (n - 1) // 2 - n + 2)), seed)
    elif relay == "worst-case-cycle" and n >= 3:
        g = worst_case_cycle(n)
    elif relay == "edgeless":
        g = edgeless_graph(n)  # every hand-off beyond the first agent is unreachable
    dag = make_dag(dag_kind, order, rng)

    assert_same(obj, lambda: old_run_sg(obj, order, g), lambda: run_sg(obj, order, g))
    assert_same(obj, lambda: old_run_dsm(obj, dag), lambda: run_dsm(obj, dag))
    if g is not None:
        start = rng.randrange(n)
        assert_same(obj, lambda: old_run_dfs_sg(obj, g, start), lambda: run_dfs_sg(obj, g, start))


def test_sequential_core_matches_the_old_loops_on_bad_inputs():
    obj = _UnionMaskObjective([[1, 2], [4], [8, 16, 32]], within=63)
    assert_same(obj, lambda: old_run_sg(obj, [0, 1]), lambda: run_sg(obj, [0, 1]))
    assert_same(obj, lambda: old_run_sg(obj, [0, 1, 2], edgeless_graph(4)),
                lambda: run_sg(obj, [0, 1, 2], edgeless_graph(4)))
    two = full_access_dag([1, 0])
    assert_same(obj, lambda: old_run_dsm(obj, two), lambda: run_dsm(obj, two))
    line4 = strongly_connected_line_plus(4, 0, 0)
    # a team-size mismatch is now named as run_sg names it, before the walk
    assert outcome_and_evals(obj, lambda: old_run_dfs_sg(obj, line4, 0)) == (
        "error", "order must be a permutation of all agents")
    assert outcome_and_evals(obj, lambda: run_dfs_sg(obj, line4, 0)) == (
        "error", "graph and objective disagree on the number of agents")


def test_a_leading_nan_score_names_the_agent():
    # f is NaN on every set holding agent 0's action 0, the first action of its menu
    obj = CallableObjective([2, 1], lambda s: math.nan if GroundElement(0, 0) in s else float(len(s)))
    message = "agent 0: action 0 scores nan; the greedy step needs a non-NaN best score"
    line = strongly_connected_line_plus(2, 0, 0)
    for old, new in [
        (lambda: old_run_sg(obj, [0, 1]), lambda: run_sg(obj, [0, 1])),
        (lambda: old_run_dsm(obj, full_access_dag([1, 0])), lambda: run_dsm(obj, full_access_dag([1, 0]))),
        (lambda: old_run_dfs_sg(obj, line, 1), lambda: run_dfs_sg(obj, line, 1)),
    ]:
        assert outcome_and_evals(obj, old) == ("error", "min() arg is an empty sequence")
        assert outcome_and_evals(obj, new) == ("error", message)


def test_dfs_sg_records_the_dags_own_access_sets():
    obj = _UnionMaskObjective([[1 << i, 1 << (i + 8)] for i in range(6)], within=(1 << 14) - 1)
    g = strongly_connected_line_plus(6, 3, 11)
    dag = dfs_order(g, 2)
    out = run_dfs_sg(obj, g, 2)
    assert out.committed_in_neighbors == tuple(
        dag.access[dag.order.index(i)] for i in range(6)
    )
