"""Differential tests: the bound layer computed from states and footprints.

subset_value_table used to evaluate every subset afresh, _differences walked
compress/cycle iterators, curvature ran one whole-ground evaluation per
element, and coin, coin_sum and aposteriori_bound evaluated frozensets. Those
functions are kept here verbatim as the reference. So are the depth-first
walk that built every subset table before coverage objectives counted theirs
from footprint unions, and bound_report's table path as it was, which took
each element's first differences twice. Results must match by
repr, raised errors by type and message, and charged evaluations by
eval_count delta. The objectives are grid, disk and windowed coverage (the
window width patched to 1-64 bits while they are built) and callable toys;
coverage coin sums are drawn both ways, from contexts and from cell counts.
Last, validate_structure audits the submodularity that coverage classes
state and bound_report trusts.
"""

import math
import random
import re
from itertools import chain, compress, cycle, repeat
from operator import sub, truediv
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cell_reference import full_width_masks
from conftest import coverage_instance, windowed_mask_objective
from meshcoord import objective
from meshcoord.bounds import (
    BoundReport,
    aposteriori_bound,
    apriori_bound,
    approx_greedy_bound,
    bound_report,
    coin_sum,
    curvature_only_bound,
)
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
    _EXHAUSTIVE_LIMIT,
    CallableObjective,
    DiskCoverageObjective,
    GridCoverageObjective,
    GroundElement,
    Objective,
    _clamp_unit,
    _difference_slices,
    _differences,
    _greatest,
    _least,
    _size_guard,
    _table_structure,
    _table_terms,
    coin,
    curvature,
    random_road_mask,
    rect_mask,
    subset_value_table,
    total_curvature,
    validate_structure,
)
from meshcoord.topology import MeshGraph, complete_graph, is_complete, knn_graph, line_graph

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


def walked_subset_value_table(obj, elements):
    m = len(elements)
    table = [0.0] * (1 << m)
    value_in, extend = obj._value_in, obj.extend

    def fill(state, mask: int, first: int) -> None:
        table[mask] = value_in(state, ())
        for j in range(first, m):
            fill(extend(state, elements[j]), mask | 1 << j, j + 1)

    obj.eval_count += 1 << m
    fill(obj.context(), 0, 0)
    return table


def walked_ground_table(obj, zero_singleton=None):
    elements = obj.ground()
    _size_guard(len(elements))
    table = walked_subset_value_table(obj, elements)
    for j, a in enumerate(elements):
        if zero_singleton is not None and table[1 << j] == 0:
            raise ValueError(f"{zero_singleton}: f({a}) = 0")
    return table, len(elements)


def twice_table_submodular(table, m):
    for s in range(m):
        gains = _differences(table, s)
        for y in range(s, m - 1):  # bit y of the gains' index is element y + 1
            # the greatest second difference, taken slice by slice without listing them
            slices = _difference_slices(gains, y)
            if _greatest(chain.from_iterable(map(sub, hi, lo) for _, hi, lo in slices)) > _EPS:
                return False
    return True


def twice_table_total_curvature(table, m):
    worst = math.inf
    skipped = 0
    for j in range(m):
        gains = list(_differences(table, j))
        hi = _greatest(gains)
        if hi == 0:
            skipped += 1
            continue
        worst = min(worst, _least(gains) / hi)
    if skipped == m:
        raise ValueError("total curvature undefined: every element has zero gain everywhere")
    return _clamp_unit(1.0 - worst, "total curvature")


def walked_bound_report(obj, g, outcome, eta=1.0, optimum_value=None, assume_submodular=None):
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")
    certified = optimum_value is None
    opt = brute_force_optimum(obj)[1] if certified else optimum_value
    kappa = curvature(obj)
    coins = coin_sum(obj, g, outcome.actions)

    # one subset table serves the total curvature and the submodularity check
    m = len(obj.ground())
    submodular = assume_submodular
    c_total = None
    if m <= _EXHAUSTIVE_LIMIT:
        table, m = walked_ground_table(obj)
        c_total = twice_table_total_curvature(table, m)
        if submodular is None:
            submodular = twice_table_submodular(table, m)
    elif submodular is not None and not submodular:
        _size_guard(m)  # the non-submodular bound needs the total curvature
    curvature_only = None
    if submodular is not None:
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


def _table_callable(values):
    """One action per agent and f(S) = values[bitmask of S]: the objective whose subset table is values."""
    return CallableObjective([1] * (len(values).bit_length() - 1), lambda sel: values[sum(1 << e.agent for e in sel)])


def _assert_table_measures_match(values, m):
    """total_curvature, bound_report's _table_terms and the structure pass on values' objective equal the iterator code."""
    obj = _table_callable(values)
    old_c = _run(Objective([1]), lambda: old_table_total_curvature(values, m))[0]
    assert _run(obj, lambda: total_curvature(obj)) == (old_c, 1 << m)
    for check in (True, False):
        old = _run(
            Objective([1]),
            lambda: (old_table_total_curvature(values, m), old_table_submodular(values, m) if check else True),
        )[0]
        assert _run(obj, lambda: _table_terms(obj, check)) == (old, 1 << m)
    # with the total curvature stubbed out, the entry's submodularity check is read on every table
    with mock.patch.object(objective, "_total_curvature", len):
        assert _table_terms(obj, True)[1] == old_table_submodular(values, m)
    try:
        structure = _table_structure(values, m)
    except (ValueError, ZeroDivisionError):
        return
    assert structure.is_submodular == old_table_submodular(values, m)
    if structure.is_monotone:  # the structure pass takes the curvature of monotone tables only
        assert repr(structure.kappa) == _run(Objective([1]), lambda: old_table_curvature(values, m))[0]


@settings(max_examples=300, deadline=None)
@given(_tables(TABLE_VALUES), st.data())
def test_table_measures_equal_the_iterator_code(table, data):
    m, values = table
    k = data.draw(st.integers(0, m - 1))
    assert repr(_differences(values, k)) == repr(list(old_differences(values, k)))
    _assert_table_measures_match(values, m)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=KINDS, window_bits=WINDOW_BITS)
def test_table_measures_of_objectives_equal_the_iterator_code(seed, kind, window_bits):
    obj = _objective(kind, random.Random(seed), window_bits)
    elements = obj.ground()[:10]
    m = len(elements)
    table = subset_value_table(obj, elements)
    _assert_table_measures_match(table, m)


def test_table_measures_cover_nan_tables_and_clamp_errors():
    """The table inputs above reach NaN entries, both clamp errors and a zero-gain error."""
    cases = {
        # element 0's gains read [nan, 1, 4, 4]: its ratio 1/4 is the worst
        "nan": [0.0, math.nan, 1.0, 2.0, 2.0, 6.0, 3.0, 7.0],
        # element 0 loses value once element 1 is in: least gain -1, greatest 1
        "not monotone": [0.0, 1.0, 2.0, 1.0],
        # every gain is 0, so every element is skipped
        "all zero": [0.0, 0.0, 0.0, 0.0],
    }
    for values in cases.values():
        _assert_table_measures_match(values, len(values).bit_length() - 1)
    assert total_curvature(_table_callable(cases["nan"])) == 0.75
    with pytest.raises(ValueError, match=r"^total curvature 2.0 falls outside \[0, 1\]; objective is not monotone-normalized$"):
        total_curvature(_table_callable(cases["not monotone"]))
    with pytest.raises(ValueError, match="every element has zero gain everywhere"):
        total_curvature(_table_callable(cases["all zero"]))


def test_total_curvature_equals_the_walked_twice_differenced_path():
    """Same value, charge and error text as the walked table with the old total curvature, past the guard too."""
    def old(obj):
        return twice_table_total_curvature(*walked_ground_table(obj))

    makes = [lambda seed=seed: _certify_shaped(seed)[0] for seed in range(40)]
    makes += [lambda seed=seed: _callable(random.Random(seed)) for seed in range(40)]
    makes.append(lambda: scaling_instance(random.Random(0), 20)[0])  # past the size guard
    makes.append(lambda: _table_callable([0.0, 1.0, 2.0, 1.0]))  # not monotone
    errors = set()
    for make in makes:
        new, ref = make(), make()
        result = _run(new, lambda: total_curvature(new))
        assert result == _run(ref, lambda: old(ref))
        if isinstance(result[0], tuple):
            errors.add(result[0][1].partition(" ")[0])
    assert {"ground", "total"} <= errors


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


@pytest.mark.parametrize(
    "agent, neighborhood, message",
    [
        (True, set(), "agent True"),  # True == 1: it would be agent 1's coin
        (1.0, set(), "agent 1.0"),
        (0, {True}, "neighborhood lists agent id True"),
    ],
)
def test_coin_rejects_agent_ids_that_are_not_ints_by_name(agent, neighborhood, message):
    obj, actions = _three_agents()
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}, which is not an int$"):
        coin(obj, agent, actions, neighborhood)


def _rag_actions():
    obj, g = random_coverage_instance(random.Random(0), max_agents=5, max_actions=3)
    assert obj.action_counts == (1, 1, 3, 2, 2)
    return obj, g, run_rag(obj, g).actions


def test_coin_sum_and_coin_reject_actions_of_another_agent_by_position():
    obj, g, actions = _rag_actions()
    assert coin_sum(obj, g, actions) == 1.0
    swapped = (actions[1], actions[0], *actions[2:])  # read as agent 0's, agent 1's action gave 2.0
    message = r"^actions\[0\] is GroundElement\(agent=1, action=0\), not an action \(agent 0, a\) with 0 <= a < 1$"
    with pytest.raises(ValueError, match=message):
        coin_sum(obj, g, swapped)
    with pytest.raises(ValueError, match=message):
        coin(obj, 0, swapped, set())


@pytest.mark.parametrize(
    "bad, shown",
    [
        (GroundElement(3, 2), r"GroundElement\(agent=3, action=2\)"),  # past the menu: a bare IndexError
        (GroundElement(3, -1), r"GroundElement\(agent=3, action=-1\)"),  # read as the last action
        ((3, "0"), r"\(3, '0'\)"),
        (None, "None"),
        ((3,), r"\(3,\)"),
    ],
    ids=["past-the-menu", "negative", "str-action", "none", "one-field"],
)
def test_coin_sum_and_coin_reject_an_element_that_is_not_an_action_by_position(bad, shown):
    obj, g, actions = _rag_actions()
    actions = (*actions[:3], bad, actions[4])
    message = rf"^actions\[3\] is {shown}, not an action \(agent 3, a\) with 0 <= a < 2$"
    with pytest.raises(ValueError, match=message):
        coin_sum(obj, g, actions)
    for agent in (0, 3):
        with pytest.raises(ValueError, match=message):
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


# --- subset tables from footprint unions -------------------------------------


def _table_objective(kind, rng, window_bits):
    """A coverage objective of kind with at least 16 elements, its masks split at window_bits bits."""
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(4, 6))]
    sizes[0] += max(0, 16 - sum(sizes))
    if kind == "windowed":  # picks its own width, 1 to 64 bits
        return windowed_mask_objective(rng, sizes)
    with mock.patch.object(objective, "_WINDOW_BITS", window_bits):
        if kind == "grid":
            width, height = rng.randint(3, 9), rng.randint(3, 9)
            road = random_road_mask(rng, width, height, rng.uniform(0.3, 0.9))
            fov = rng.randint(1, 4)
            return GridCoverageObjective(
                road,
                [[rect_mask(rng.randrange(width), rng.randrange(height), fov, fov, width, height) for _ in range(size)] for size in sizes],
            )
        side = rng.uniform(1.5, 4.0)
        return DiskCoverageObjective(
            [[(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(size)] for size in sizes],
            rng.uniform(0.3, 1.5),
            arena=(0.0, 0.0, side, side),
            resolution=rng.choice([2, 3, 4]),
        )


def _run_or_raise(obj, call):
    """_run, with an IndexError (an element outside the ground set) recorded like the others."""
    before = obj.eval_count
    try:
        result = repr(call())
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, obj.eval_count - before


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["grid", "disk", "windowed"]),
    window_bits=WINDOW_BITS,
    m=st.sampled_from(range(17)),  # uniform, so the large tables are drawn as often as the small
    stray=st.sampled_from([None, "agent", "action"]),
)
@example(seed=0, kind="grid", window_bits=objective._WINDOW_BITS, m=16, stray=None)
@example(seed=1, kind="grid", window_bits=5, m=15, stray=None)
@example(seed=2, kind="disk", window_bits=objective._WINDOW_BITS, m=16, stray=None)
@example(seed=3, kind="disk", window_bits=1, m=16, stray=None)
@example(seed=4, kind="windowed", window_bits=1, m=16, stray=None)
@example(seed=5, kind="windowed", window_bits=1, m=0, stray=None)
@example(seed=6, kind="grid", window_bits=3, m=16, stray="action")
def test_subset_table_from_unions_equals_the_walk(seed, kind, window_bits, m, stray):
    """Coverage tables counted from footprint unions equal the walked ones, entry for entry, charge for charge."""
    new, old = (_table_objective(kind, random.Random(seed), window_bits) for _ in range(2))
    assert new._window_count > 1 or kind != "windowed"
    rng = random.Random(seed)
    elements = rng.sample(new.ground(), m)  # in shuffled order
    if stray:
        bad = GroundElement(new.n_agents, 0) if stray == "agent" else GroundElement(0, new.action_counts[0])
        elements.insert(rng.randint(0, len(elements)), bad)
    # each objective keeps the window width it was built with, whatever the module's reads now
    with mock.patch.object(objective, "_WINDOW_BITS", 1):
        result, charged = _run_or_raise(new, lambda: subset_value_table(new, elements))
    assert (result, charged) == _run_or_raise(old, lambda: walked_subset_value_table(old, elements))
    # an element outside the ground set raises after the whole charge, as the walk did
    assert charged == 1 << len(elements)
    assert (result[0] == "IndexError") == (stray is not None)


def _certify_shaped(seed):
    return random_coverage_instance(random.Random(seed), max_agents=5, max_actions=3, min_agents=4)


def _sixteen_element_instances(count):
    found = []
    draw = 0
    while len(found) < count:
        obj, g = random_coverage_instance(random.Random(f"m16:{draw}"), max_agents=6, max_actions=4, min_agents=4)
        draw += 1
        if len(obj.ground()) == 16:
            found.append(draw - 1)
    return found


def _assert_reports_match(make):
    """bound_report equals walked_bound_report with submodularity decided, assume_submodular=None."""
    new, g = make()
    old, _ = make()
    out_new, out_old = run_rag(new, g), run_rag(old, g)
    report = _run(new, lambda: bound_report(new, g, out_new))
    assert report == _run(old, lambda: walked_bound_report(old, g, out_old))
    return report


def test_bound_reports_equal_the_walked_twice_differenced_path():
    """200 certify-shaped instances and three of 16 elements: equal reports by repr, equal charges."""
    certified = 0
    for seed in range(200):
        report, _charged = _assert_reports_match(lambda: _certify_shaped(seed))
        certified += report.startswith("BoundReport(") and "certified=True" in report
    assert certified >= 150
    # coverage plus a bonus for one pair of actions: monotone, not submodular
    violated = 0
    for seed in range(60):
        cov, g = _certify_shaped(seed)
        pair = {GroundElement(0, 0), GroundElement(1, 0)}
        bonus = lambda sel: cov.covered_cells(sel) + 100.0 * (pair <= sel)
        report, _charged = _assert_reports_match(lambda: (CallableObjective(cov.action_counts, bonus), g))
        table, m = walked_ground_table(CallableObjective(cov.action_counts, bonus))
        violated += report.startswith("BoundReport(") and not twice_table_submodular(table, m)
    assert violated >= 30
    # toys that are not submodular, or not monotone, or raise
    for seed in range(60):
        n = _callable(random.Random(seed)).n_agents
        _assert_reports_match(lambda: (_callable(random.Random(seed)), line_graph(n)))
    for draw in _sixteen_element_instances(3):
        make = lambda: random_coverage_instance(random.Random(f"m16:{draw}"), max_agents=6, max_actions=4, min_agents=4)
        report, charged = _assert_reports_match(make)
        assert "certified=True" in report and charged >= 1 << 16


def test_the_union_kernel_holds_about_two_square_roots_of_unions(monkeypatch):
    """At m = 16 the kernel packs 16 footprints and builds 2 * 2^8 unions, never 2^16."""
    built = []

    def counted(name, fn):
        def wrapper(*args):
            ints = fn(*args)
            built.append((name, len(ints)))
            return ints
        return wrapper

    monkeypatch.setattr(objective, "_unions", counted("unions", objective._unions))
    monkeypatch.setattr(objective, "_packed", counted("packed", objective._packed))
    for kind, window_bits in (("grid", objective._WINDOW_BITS), ("grid", 4), ("disk", 7)):
        obj = _table_objective(kind, random.Random(16), window_bits)
        elements = obj.ground()[:16]
        built.clear()
        table = subset_value_table(obj, elements)
        assert len(table) == 1 << 16
        packed = [("packed", 16)] if obj._window_count > 1 else []
        assert built == packed + [("unions", 1 << 8), ("unions", 1 << 8)]


# --- submodularity stated by the class ------------------------------------------


def _stated_submodular(kind, rng):
    """A plain grid, disk or windowed coverage objective of at most 12 elements."""
    if kind == "grid":
        return random_coverage_instance(rng, max_agents=4, max_actions=3)[0]
    if kind == "disk":
        return _disk(rng)
    return windowed_mask_objective(rng, [rng.randint(1, 3) for _ in range(rng.randint(2, 4))])


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["grid", "disk", "windowed"]))
def test_objectives_that_state_submodularity_pass_the_full_audit(seed, kind):
    """bound_report trusts _known_submodular; validate_structure checks it."""
    obj = _stated_submodular(kind, random.Random(seed))
    assert obj._known_submodular and len(obj.ground()) <= 12
    assume(all(obj.evaluate([e]) > 0 for e in obj.ground()))
    report = validate_structure(obj)
    assert report.is_monotone and report.is_submodular


def test_only_objectives_without_stated_submodularity_pay_its_check(monkeypatch):
    calls = []
    along = objective._submodular_along
    monkeypatch.setattr(objective, "_submodular_along", lambda *args: calls.append(args[1:]) or along(*args))
    for seed in range(10):
        obj, g = _certify_shaped(seed)
        assert bound_report(obj, g, run_rag(obj, g)).c_total is not None
    assert calls == []
    toy = logdet_toy()
    report = bound_report(toy, complete_graph(3), run_rag(toy, complete_graph(3)))
    assert calls and report.curvature_only is not None
