"""Differential test: run_rag against the loop it replaced.

run_rag used to rebuild each agent's context state from a dict of received
actions on every recompute, and compared bids with one of two mirrored
comprehensions per tie-break. It now extends one state per agent as commits
arrive and compares (score, -id) bids with one operator, and it scores each
menu with one Objective._menu_values call. The old loop is kept here
verbatim as the reference, with the old scoring helpers _scores and
_greedy_pick; whole outcomes, raised messages, the objective's evaluation
count and the rng's state must match. One message changed on purpose: where
the old loop raised the bare "min() arg is an empty sequence" of a menu whose
first score is NaN, run_rag raises a ValueError naming the agent.
"""

import math
import random
import re
from dataclasses import replace
from typing import Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import windowed_mask_objective
from meshcoord.coordination import TIE_BREAKS, CoordinationOutcome, IterationEvent, run_rag
from meshcoord.instances import random_coverage_instance
from meshcoord.objective import CallableObjective, GroundElement, Objective, _UnionMaskObjective
from meshcoord.topology import (
    MeshGraph,
    complete_graph,
    edgeless_graph,
    knn_graph,
    line_graph,
    star_graph,
)


def _scores(obj: Objective, menu: Sequence[GroundElement], state) -> list[tuple[float, GroundElement]]:
    """f(context + a) for each action a, one evaluation each."""
    return [(obj.evaluate((a,), state), a) for a in menu]


def _greedy_pick(values: list[tuple[float, GroundElement]]) -> tuple[float, GroundElement]:
    """The best score, taken by the lowest action id among the maxima."""
    best_value = max(v for v, _ in values)
    return min((v, a) for v, a in values if v == best_value)


def old_run_rag(
    obj: Objective,
    g: MeshGraph,
    tie_break: str = "max-gain-lowest-id",
    eta: float = 1.0,
    rng=None,
) -> CoordinationOutcome:
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}; expected one of {TIE_BREAKS}")
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")
    if eta < 1 and rng is None:
        raise ValueError("approximate-greedy mode needs an rng")
    n = obj.n_agents
    menus = [obj.actions(i) for i in range(n)]
    if g.n != n:
        raise ValueError("graph and objective disagree on the number of agents")

    undecided = set(range(n))
    context: list[dict[int, GroundElement]] = [{} for _ in range(n)]
    dirty = [True] * n
    score: list[float] = [0.0] * n
    choice: list[GroundElement | None] = [None] * n
    committed_at = [0] * n
    committed_nbrs: list[frozenset[int]] = [frozenset()] * n
    final_action: list[GroundElement | None] = [None] * n
    eval_counts = [0] * n
    events: list[IterationEvent] = []
    invert = tie_break == "min-gain-highest-id"

    iteration = 0
    while undecided:
        iteration += 1
        if iteration > n:
            raise RuntimeError("coordination failed to make progress")  # unreachable by design

        recomputed = frozenset(i for i in undecided if dirty[i])
        for i in recomputed:
            state = obj.context(context[i].values())
            values = _scores(obj, menus[i], state)
            eval_counts[i] += len(menus[i])
            if eta < 1:
                ctx_value = obj.evaluate((), state) if context[i] else 0.0
                if context[i]:
                    eval_counts[i] += 1
                best_gain = max(v for v, _ in values) - ctx_value
                if not best_gain >= 0:
                    raise ValueError(
                        f"agent {i}: best marginal gain is {best_gain!r}; approximate"
                        " greedy (eta < 1) needs non-negative, non-NaN gains"
                    )
                eligible = [
                    (v, a) for v, a in values if v - ctx_value >= eta * best_gain
                ]
                score[i], choice[i] = eligible[rng.randrange(len(eligible))]
            else:
                score[i], choice[i] = _greedy_pick(values)
            dirty[i] = False

        pools = {i: g.in_neighbors[i] & undecided for i in undecided}
        gains_exchanged = any(pools[i] for i in undecided)

        selectors = set()
        for i in undecided:
            if invert:
                wins = all(
                    (score[i], -i) < (score[j], -j) for j in pools[i]
                )
            else:
                wins = all(
                    (score[i], -i) > (score[j], -j) for j in pools[i]
                )
            if wins:
                selectors.add(i)

        for i in selectors:
            final_action[i] = choice[i]
            committed_at[i] = iteration
            committed_nbrs[i] = frozenset(context[i].keys())

        undecided -= selectors
        broadcast = False
        for i in selectors:
            for j in g.out_neighbors[i]:
                if j in undecided:
                    context[j][i] = final_action[i]  # type: ignore[assignment]
                    dirty[j] = True
                    broadcast = True

        events.append(
            IterationEvent(
                iteration=iteration,
                recomputed=recomputed,
                gains_exchanged=gains_exchanged,
                selectors=frozenset(selectors),
                broadcast_occurred=broadcast,
            )
        )

    actions = tuple(a for a in final_action if a is not None)
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
        committed_in_neighbors=tuple(committed_nbrs),
    )


def assert_same_record(new, old) -> None:
    """The records of run_and_record match, except that the old loop's bare
    error for a menu whose first score is NaN must be one naming the agent."""
    if old[0] == ("ValueError", "min() arg is an empty sequence"):
        assert new[0][0] == "ValueError" and re.fullmatch(r"agent \d+: action 0 scores nan; .*", new[0][1])
        new, old = new[1:], old[1:]
    assert new == old


def run_and_record(obj: Objective, rule, rng_seed):
    """(outcome or raised error, evaluations charged, rng state afterwards).

    The value goes through repr, so NaN outcomes compare equal.
    """
    rng = random.Random(rng_seed)
    before = obj.eval_count
    try:
        out = rule(rng)
        result = replace(out, value=repr(out.value))
    except (ValueError, RuntimeError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, obj.eval_count - before, rng.getstate()


def callable_objective(menu_sizes: list[int], rng: random.Random) -> CallableObjective:
    """Small integer weights (ties, negatives) plus a pairwise term; an optional
    poison element makes every set that holds it NaN."""
    weights = {
        GroundElement(i, a): rng.choice((-2, -1, 0, 0, 1, 1, 2))
        for i, size in enumerate(menu_sizes)
        for a in range(size)
    }
    bonus = rng.choice((-1, 0, 0, 1))
    poison = rng.choice([None, None, *weights])

    def f(s):
        if poison in s:
            return math.nan
        return float(sum(weights[e] for e in s) + bonus * len(s) * (len(s) - 1) // 2)

    return CallableObjective(menu_sizes, f)


def make_graph(kind: str, n: int, rng: random.Random) -> MeshGraph:
    if kind == "edgeless":
        return edgeless_graph(n)
    if kind == "complete":
        return complete_graph(n)
    if kind == "line":
        return line_graph(n)
    if kind == "star":
        return star_graph(n, rng.randrange(n))
    if kind == "knn":
        positions = [(rng.randrange(6), rng.randrange(6)) for _ in range(n)]
        return knn_graph(positions, rng.randrange(n), rng.choice((1.5, 3.0, math.inf)))
    p = rng.choice((0.2, 0.5, 0.8))  # random digraph
    return MeshGraph(n, [[j for j in range(n) if j != i and rng.random() < p] for i in range(n)])


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    objective=st.sampled_from(["coverage", "mask", "windowed", "callable"]),
    graph=st.sampled_from(["edgeless", "complete", "line", "star", "knn", "random"]),
    tie_break=st.sampled_from(TIE_BREAKS),
    eta=st.sampled_from([1.0, 0.5]),
)
@example(seed=0, objective="coverage", graph="line", tie_break=TIE_BREAKS[0], eta=1.0)
@example(seed=1, objective="callable", graph="complete", tie_break=TIE_BREAKS[1], eta=0.5)
@example(seed=2, objective="mask", graph="knn", tie_break=TIE_BREAKS[0], eta=0.5)
@example(seed=3, objective="windowed", graph="random", tie_break=TIE_BREAKS[0], eta=1.0)
def test_rag_matches_the_old_loop(seed, objective, graph, tie_break, eta):
    rng = random.Random(seed)
    if objective == "coverage":
        obj, _ = random_coverage_instance(rng, max_agents=7, max_actions=4)
    else:
        menu_sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 7))]
        if objective == "mask":
            obj = _UnionMaskObjective(
                [[rng.getrandbits(20) for _ in range(m)] for m in menu_sizes], within=(1 << 20) - 1
            )
        elif objective == "windowed":
            obj = windowed_mask_objective(rng, menu_sizes)
        else:
            obj = callable_objective(menu_sizes, rng)
    g = make_graph(graph, obj.n_agents, rng)

    def old(r):
        return old_run_rag(obj, g, tie_break=tie_break, eta=eta, rng=r)

    def new(r):
        return run_rag(obj, g, tie_break=tie_break, eta=eta, rng=r)

    assert_same_record(run_and_record(obj, new, seed), run_and_record(obj, old, seed))


def test_rag_matches_the_old_loop_on_bad_inputs():
    obj = _UnionMaskObjective([[1, 2], [4], [8, 16, 32]], within=63)
    for kwargs in ({}, {"tie_break": "coin-flip"}, {"eta": 0.0}, {"eta": 1.5}, {"eta": 0.5, "rng": None}):
        for g in (complete_graph(3), edgeless_graph(4)):
            def old(r):
                return old_run_rag(obj, g, **{"rng": r, **kwargs})

            def new(r):
                return run_rag(obj, g, **{"rng": r, **kwargs})

            assert_same_record(run_and_record(obj, new, 0), run_and_record(obj, old, 0))


def test_a_leading_nan_score_names_the_agent():
    # f is NaN on every set holding agent 0's action 0, the first action of its menu
    obj = CallableObjective([2, 1], lambda s: math.nan if GroundElement(0, 0) in s else float(len(s)))
    g = complete_graph(2)
    old = run_and_record(obj, lambda r: old_run_rag(obj, g), 0)
    assert old[0] == ("ValueError", "min() arg is an empty sequence")
    new = run_and_record(obj, lambda r: run_rag(obj, g), 0)
    assert new[0] == ("ValueError", "agent 0: action 0 scores nan; the greedy step needs a non-NaN best score")
    assert new[1:] == old[1:]

