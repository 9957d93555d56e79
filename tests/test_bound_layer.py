"""Differential tests: the bound layer computed from states and footprints.

subset_value_table used to evaluate every subset afresh, _differences walked
compress/cycle iterators, curvature ran one whole-ground evaluation per
element, and coin, coin_sum and aposteriori_bound evaluated frozensets. Those
functions are kept here verbatim as the reference. Results must match by
repr, raised errors by type and message, and charged evaluations by
eval_count delta. The objectives are grid, disk and windowed coverage (the
window width patched to 1-64 bits while they are built) and callable toys;
coverage coin sums are drawn both ways, from contexts and from cell counts.
"""

import math
import random
from itertools import compress, cycle, repeat
from operator import sub, truediv
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cell_reference import full_width_masks
from conftest import coverage_instance, windowed_mask_objective
from meshcoord import objective
from meshcoord.bounds import aposteriori_bound, bound_report, coin_sum
from meshcoord.coordination import brute_force_optimum, run_rag
from meshcoord.instances import (
    logdet_toy,
    modular_objective,
    random_coverage_instance,
    scaling_instance,
    supermodular_toy,
)
from meshcoord.objective import (
    _EPS,
    CallableObjective,
    DiskCoverageObjective,
    GroundElement,
    Objective,
    _clamp_unit,
    _differences,
    _greatest,
    _least,
    _table_submodular,
    _table_total_curvature,
    coin,
    curvature,
    subset_value_table,
)
from meshcoord.topology import MeshGraph, knn_graph, line_graph

# --- the replaced code, verbatim ---------------------------------------------


def old_subset_value_table(obj, elements):
    m = len(elements)
    table = [0.0] * (1 << m)
    for mask in range(1 << m):
        table[mask] = obj.evaluate(
            [elements[j] for j in range(m) if mask & (1 << j)]
        )
    return table


def old_differences(values, k):
    half = 1 << k
    keep = (True,) * half + (False,) * half
    return map(sub, compress(values[half:], cycle(keep)), compress(values, cycle(keep)))


def old_table_submodular(table, m):
    for s in range(m):
        gains = list(old_differences(table, s))
        for y in range(s, m - 1):  # bit y of the gains' index is element y + 1
            if _greatest(old_differences(gains, y)) > _EPS:
                return False
    return True


def old_table_total_curvature(table, m):
    worst = math.inf
    skipped = 0
    for j in range(m):
        gains = list(old_differences(table, j))
        hi = _greatest(gains)
        if hi == 0:
            skipped += 1
            continue
        worst = min(worst, _least(gains) / hi)
    if skipped == m:
        raise ValueError("total curvature undefined: every element has zero gain everywhere")
    return _clamp_unit(1.0 - worst, "total curvature")


def old_table_curvature(table, m):
    worst = math.inf
    for j in range(m):
        worst = _least(map(truediv, old_differences(table, j), repeat(table[1 << j])), worst)
    return _clamp_unit(1.0 - worst, "curvature")


def old_curvature(obj):
    elements = obj.ground()
    f_full = obj.evaluate(elements)
    worst = math.inf
    full = frozenset(elements)
    for a in elements:
        f_single = obj.evaluate([a])
        if f_single == 0:
            raise ValueError(f"curvature undefined: f({a}) = 0")
        ratio = (f_full - obj.evaluate(full - {a})) / f_single
        worst = min(worst, ratio)
    return _clamp_unit(1.0 - worst, "curvature")


def old_coin(obj, agent, actions, neighborhood):
    nbrs = set(neighborhood)
    if agent in nbrs:
        raise ValueError("agent may not appear in its own neighborhood")
    n = obj.n_agents
    if len(actions) != n:
        raise ValueError("need one selected action per agent")
    if not nbrs <= set(range(n)):
        raise ValueError("neighborhood contains unknown agent ids")
    a_i = actions[agent]
    others = frozenset(actions[j] for j in range(n) if j != agent and j not in nbrs)
    f_single = obj.evaluate([a_i])
    f_ctx = obj.evaluate(others)
    return f_single - (obj.evaluate(others | {a_i}) - f_ctx)


def old_coin_sum(obj, g, actions):
    return sum(
        old_coin(obj, i, actions, g.in_neighbors[i]) for i in range(obj.n_agents)
    )


def _optimum(obj, optimum_value):
    if optimum_value is None:
        _, optimum_value = brute_force_optimum(obj)
    return optimum_value


def old_aposteriori_bound(obj, outcome, optimum_value=None, kappa=None):
    if outcome.committed_in_neighbors is None:
        raise ValueError("outcome does not record per-agent commit contexts")
    if kappa is None:
        kappa = old_curvature(obj)
    opt = _optimum(obj, optimum_value)
    total = 0.0
    for i, a_i in enumerate(outcome.actions):
        ctx = frozenset(outcome.actions[j] for j in outcome.committed_in_neighbors[i])
        total += obj.evaluate(ctx | {a_i}) - obj.evaluate(ctx)
    return opt - kappa * total


# --- objectives --------------------------------------------------------------


def _disk(rng):
    side = rng.uniform(2.0, 8.0)
    return DiskCoverageObjective(
        [[(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(2, 4))],
        rng.uniform(0.3, 2.0),
        arena=(0.0, 0.0, side, side),
        resolution=rng.choice([2, 3, 4, 10]),
    )


def _callable(rng):
    counts = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    weights = {GroundElement(i, a): rng.uniform(-1, 2) for i, c in enumerate(counts) for a in range(c)}
    toys = [
        modular_objective(counts),
        supermodular_toy(rng.randint(2, 4)),
        logdet_toy(),
        # one agent's first action is worth nothing
        CallableObjective(counts, lambda sel: float(sum(e.agent + e.action > 0 for e in sel))),
        # fsum is exactly rounded, so the value does not depend on iteration order
        CallableObjective(counts, lambda sel: math.fsum(weights[e] for e in sel) ** 2 / (1 + len(sel))),
    ]
    return rng.choice(toys)


def _objective(kind, rng, window_bits):
    """A fresh objective of kind; the coverage kinds are built with the window width patched."""
    if kind == "callable":
        return _callable(rng)
    with mock.patch.object(objective, "_WINDOW_BITS", window_bits):
        if kind == "grid":
            return random_coverage_instance(rng, max_agents=5, max_actions=3)[0]
        if kind == "disk":
            return _disk(rng)
    # empty masks give zero singletons
    return windowed_mask_objective(rng, [rng.randint(1, 3) for _ in range(rng.randint(2, 5))])


def _twins(kind, seed, window_bits):
    """Two equal objectives with fresh evaluation counters, one for each side of a comparison."""
    return _objective(kind, random.Random(seed), window_bits), _objective(kind, random.Random(seed), window_bits)


def _run(obj, call):
    """(repr of the result, or the error's type and message; evaluations charged)."""
    before = obj.eval_count
    try:
        result = repr(call())
    except (ValueError, ZeroDivisionError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, obj.eval_count - before


def _actions(rng, obj):
    return tuple(GroundElement(i, rng.randrange(c)) for i, c in enumerate(obj.action_counts))


def _nbrs(rng, n, agent):
    return {j for j in range(n) if j != agent and rng.random() < 0.5}


KINDS = st.sampled_from(["grid", "disk", "windowed", "callable"])
WINDOW_BITS = st.sampled_from([objective._WINDOW_BITS, 64, 7, 1]) | st.integers(1, 64)
# 0 makes every coverage coin sum count cells
COIN_CONTEXTS_LIMIT = st.sampled_from([0, objective._COIN_CONTEXTS_LIMIT])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=KINDS, window_bits=WINDOW_BITS, limit=COIN_CONTEXTS_LIMIT)
@example(seed=0, kind="windowed", window_bits=1, limit=0)
def test_bound_terms_equal_the_evaluating_code(seed, kind, window_bits, limit):
    new, old = _twins(kind, seed, window_bits)
    rng = random.Random(seed)
    n = new.n_agents
    ground = new.ground()
    elements = rng.sample(ground, min(len(ground), rng.randint(0, 8)))
    assert _run(new, lambda: subset_value_table(new, elements)) == _run(old, lambda: old_subset_value_table(old, elements))
    assert _run(new, lambda: curvature(new)) == _run(old, lambda: old_curvature(old))
    actions = _actions(rng, new)
    for agent in range(n):
        nbrs = _nbrs(rng, n, agent)
        assert _run(new, lambda: coin(new, agent, actions, nbrs)) == _run(old, lambda: old_coin(old, agent, actions, nbrs))
    g = MeshGraph(n, [_nbrs(rng, n, i) for i in range(n)])
    with mock.patch.object(objective, "_COIN_CONTEXTS_LIMIT", limit):
        assert _run(new, lambda: coin_sum(new, g, actions)) == _run(old, lambda: old_coin_sum(old, g, actions))
        short = actions[:-1]
        assert _run(new, lambda: coin_sum(new, g, short)) == _run(old, lambda: old_coin_sum(old, g, short))
    outcome = SimpleNamespace(actions=actions, committed_in_neighbors=g.in_neighbors)
    kappa, opt = rng.random(), rng.uniform(0, 10)
    assert _run(new, lambda: aposteriori_bound(new, outcome, opt, kappa)) == _run(
        old, lambda: old_aposteriori_bound(old, outcome, opt, kappa)
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=KINDS, window_bits=WINDOW_BITS, limit=COIN_CONTEXTS_LIMIT)
def test_bound_terms_on_rag_outcomes_equal_the_evaluating_code(seed, kind, window_bits, limit):
    new, old = _twins(kind, seed, window_bits)
    rng = random.Random(seed)
    n = new.n_agents
    g = MeshGraph(n, [_nbrs(rng, n, i) for i in range(n)])
    out = run_rag(new, g)
    with mock.patch.object(objective, "_COIN_CONTEXTS_LIMIT", limit):
        assert _run(new, lambda: coin_sum(new, g, out.actions)) == _run(old, lambda: old_coin_sum(old, g, out.actions))
    assert _run(new, lambda: aposteriori_bound(new, out, 1.0, 0.5)) == _run(
        old, lambda: old_aposteriori_bound(old, out, 1.0, 0.5)
    )


def _tables(draw_values):
    return st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.lists(draw_values, min_size=1 << m, max_size=1 << m)))


TABLE_VALUES = st.floats(-4, 4) | st.integers(-3, 3).map(float) | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(_tables(TABLE_VALUES), st.data())
def test_table_measures_equal_the_iterator_code(table, data):
    m, values = table
    k = data.draw(st.integers(0, m - 1))
    assert repr(_differences(values, k)) == repr(list(old_differences(values, k)))
    assert _table_submodular(values, m) == old_table_submodular(values, m)
    assert _run(Objective([1]), lambda: _table_total_curvature(values, m)) == _run(
        Objective([1]), lambda: old_table_total_curvature(values, m)
    )
    assert _run(Objective([1]), lambda: objective._table_curvature(values, m)) == _run(
        Objective([1]), lambda: old_table_curvature(values, m)
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=KINDS, window_bits=WINDOW_BITS)
def test_table_measures_of_objectives_equal_the_iterator_code(seed, kind, window_bits):
    obj = _objective(kind, random.Random(seed), window_bits)
    elements = obj.ground()[:10]
    m = len(elements)
    table = subset_value_table(obj, elements)
    assert _table_submodular(table, m) == old_table_submodular(table, m)
    assert _run(obj, lambda: _table_total_curvature(table, m)) == _run(obj, lambda: old_table_total_curvature(table, m))


def test_subset_table_makes_the_same_value_calls_and_keeps_one_path_of_states():
    """Every subset reaches _value once, as a frozenset, and at most m + 1 states live at once."""
    live = {"now": 0, "most": 0}

    class State(frozenset):
        def __init__(self, items=()):
            live["now"] += 1
            live["most"] = max(live["most"], live["now"])

        def __del__(self):
            live["now"] -= 1

    seen = []

    class Tracked(CallableObjective):
        def context(self, selection=()):
            return State(selection)

        def extend(self, state, element):
            return State(state | {element})

    obj = Tracked([2, 1, 3, 2], lambda sel: seen.append(sel) or float(len(sel)))
    elements = obj.ground()
    table = subset_value_table(obj, elements)
    assert obj.eval_count == 1 << len(elements)
    assert table == [float(bin(mask).count("1")) for mask in range(1 << len(elements))]
    assert sorted(map(sorted, seen)) == sorted(
        sorted(elements[j] for j in range(len(elements)) if mask >> j & 1) for mask in range(1 << len(elements))
    )
    assert all(type(sel) is frozenset for sel in seen)
    assert live["most"] <= len(elements) + 1
    assert live["now"] == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["grid", "disk", "windowed"]), window_bits=WINDOW_BITS)
def test_each_footprint_count_is_stored_once(seed, kind, window_bits):
    obj = _objective(kind, random.Random(seed), window_bits)
    counts = tuple(tuple(mask.bit_count() for mask in menu) for menu in full_width_masks(obj))
    assert obj._counts == counts


def test_curvature_and_coin_sum_count_from_the_footprints(monkeypatch):
    """On coverage objectives neither term evaluates: each charges its evaluations in bulk."""
    obj, g = coverage_instance(5)
    out = run_rag(obj, g)
    expected = (old_curvature(obj), old_coin_sum(obj, g, out.actions))
    monkeypatch.setattr(objective, "_COIN_CONTEXTS_LIMIT", 0)
    monkeypatch.setattr(obj, "_value_in", lambda *args: pytest.fail("evaluated"))
    before = obj.eval_count
    assert (curvature(obj), coin_sum(obj, g, out.actions)) == expected
    assert obj.eval_count - before == 1 + 2 * len(obj.ground()) + 3 * obj.n_agents


# --- bad agent ids and graph sizes -------------------------------------------


def _three_agents():
    obj, _ = random_coverage_instance(random.Random(3), max_agents=5, max_actions=3)
    assert obj.n_agents == 3
    return obj, run_rag(obj, line_graph(3)).actions


@pytest.mark.parametrize("agent", [-1, 3, 10])
def test_coin_rejects_an_agent_outside_the_team_by_name(agent):
    obj, actions = _three_agents()
    with pytest.raises(ValueError, match=rf"agent {agent} is not an agent id in \[0, 3\)"):
        coin(obj, agent, actions, set())


@pytest.mark.parametrize("size", [2, 5])
def test_coin_sum_and_bound_report_reject_a_graph_of_another_size(size):
    obj, actions = _three_agents()
    g = line_graph(size)
    with pytest.raises(ValueError, match="graph and objective disagree on the number of agents"):
        coin_sum(obj, g, actions)
    outcome = run_rag(obj, line_graph(3))
    with pytest.raises(ValueError, match="graph and objective disagree on the number of agents"):
        bound_report(obj, g, outcome)


@pytest.mark.parametrize("n", [objective._COIN_CONTEXTS_LIMIT, objective._COIN_CONTEXTS_LIMIT + 1, 60])
def test_coin_sum_of_a_larger_team_equals_the_evaluating_code(n):
    """Either side of the team size where coverage coin sums switch from contexts to cell counts."""
    obj, positions = scaling_instance(random.Random(n), n)
    g = knn_graph(positions, 4, 12.0)
    actions = run_rag(obj, g).actions
    old, _ = scaling_instance(random.Random(n), n)
    assert _run(obj, lambda: coin_sum(obj, g, actions)) == _run(old, lambda: old_coin_sum(old, g, actions))
