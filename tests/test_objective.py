import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cell_reference import disk_mask, list_road_mask, rect_footprint
from conftest import coverage_instance
from meshcoord import objective
from meshcoord.instances import logdet_toy, modular_objective, supermodular_toy
from meshcoord.objective import (
    CallableObjective,
    DiskCoverageObjective,
    GridCoverageObjective,
    GroundElement,
    StructureReport,
    coin,
    coin_ring_bound,
    curvature,
    parse_road_mask,
    random_road_mask,
    rect_mask,
    road_bits,
    subset_value_table,
    total_curvature,
    validate_structure,
)

# the largest sensing radius whose square is within the float range, about 1.34e154
_RADIUS_LIMIT = math.sqrt(sys.float_info.max)


def test_objective_rejects_bad_action_counts():
    with pytest.raises(ValueError):
        CallableObjective([], lambda s: 0.0)
    with pytest.raises(ValueError):
        CallableObjective([2, 0], lambda s: 0.0)


def test_an_objective_without_a_value_cannot_evaluate():
    # Objective itself leaves _value to its subclasses
    with pytest.raises(NotImplementedError, match="^$"):
        objective.Objective([1]).evaluate([])


@pytest.mark.parametrize(
    "counts, bad",
    [([2.5], "[0] is 2.5"), (["3"], "[0] is '3'"), ([2, True], "[1] is True"), ([1, 2.0], "[1] is 2.0")],
)
def test_objective_rejects_action_counts_that_are_not_ints_by_position(counts, bad):
    # int() would truncate 2.5 to 2 actions and read "3" as 3
    with pytest.raises(ValueError, match=rf"^action_counts{re.escape(bad)}, which is not an int$"):
        CallableObjective(counts, lambda s: 0.0)


def test_ground_and_menus():
    obj = modular_objective([2, 3])
    assert obj.n_agents == 2
    assert obj.actions(1) == [GroundElement(1, 0), GroundElement(1, 1), GroundElement(1, 2)]
    assert len(obj.ground()) == 5


def test_evaluate_is_normalized_and_counts_calls():
    obj = modular_objective([2, 2])
    assert obj.evaluate([]) == 0.0
    obj.evaluate([GroundElement(0, 1)])
    assert obj.eval_count == 2


def _objectives_of_each_kind(seed):
    rng = random.Random(seed)
    grid, _ = coverage_instance(seed)
    disk = DiskCoverageObjective(
        [
            [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(2, 4))
        ],
        rng.uniform(0.5, 2.0),
        arena=(0.0, 0.0, 6.0, 6.0),
        resolution=4,
    )
    weights = {e: rng.uniform(-1, 2) for e in disk.ground()}
    # fsum is exactly rounded, so the value does not depend on iteration order
    weighted = CallableObjective(
        disk.action_counts, lambda sel: math.fsum(weights[e] for e in sel) ** 2 / (1 + len(sel))
    )
    return [grid, disk, weighted]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_context_state_evaluates_like_the_union_selection(seed, data):
    for obj in _objectives_of_each_kind(seed):
        ground = obj.ground()
        ctx = data.draw(st.lists(st.sampled_from(ground), max_size=len(ground)))
        extra = data.draw(st.lists(st.sampled_from(ground), max_size=3))
        expected = obj.evaluate(set(ctx) | set(extra))
        empty = obj.context()
        built = obj.context(ctx)
        grown = empty
        for e in ctx:
            grown = obj.extend(grown, e)
        count = obj.eval_count
        for state in (built, grown):
            assert obj.evaluate(extra, state) == expected
        assert obj.eval_count == count + 2  # one per call; context and extend are free
        # extending returned new states and left the empty one as it was
        assert obj.evaluate(extra, empty) == obj.evaluate(extra)
        assert obj.evaluate((), built) == obj.evaluate(ctx)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([objective._WINDOW_BITS, 64, 7, 1]), st.data())
def test_menu_values_equal_per_action_evaluate(seed, window_bits, data):
    # the coverage objectives are built plain or windowed; the callable one
    # falls back to the base class's per-action loop
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objective, "_WINDOW_BITS", window_bits)
        objs = _objectives_of_each_kind(seed)
    for obj in objs:
        ground = obj.ground()
        state = obj.context(data.draw(st.lists(st.sampled_from(ground), max_size=len(ground))))
        for agent in range(obj.n_agents):
            count = obj.eval_count
            values = obj._menu_values(agent, state)
            assert obj.eval_count == count + obj.action_counts[agent]
            assert repr(values) == repr([obj.evaluate((e,), state) for e in obj.actions(agent)])
            assert obj.eval_count == count + 2 * obj.action_counts[agent]


def test_shipped_objectives_are_normalized():
    grid = GridCoverageObjective(["##", ".#"], [[1 << 0], [1 << 3]])  # cells (0, 0) and (1, 1)
    disk = DiskCoverageObjective([[(1.0, 1.0)]], 0.5, arena=(0.0, 0.0, 2.0, 2.0))
    for obj in (grid, disk, supermodular_toy(), logdet_toy()):
        assert obj.evaluate([]) == 0.0


def test_grid_mask_validation():
    with pytest.raises(ValueError):
        GridCoverageObjective(["##", "#"], [[1], [1]])
    with pytest.raises(ValueError):
        GridCoverageObjective(["#x"], [[1], [1]])


@pytest.mark.parametrize("bad", [frozenset({(0, 0)}), [(0, 0)], -1, 1.0, None])
def test_grid_footprints_must_be_bitmasks(bad):
    with pytest.raises(ValueError, match="agent 1 action 2 .*int bitmask.*rect_mask"):
        GridCoverageObjective(["##"], [[1], [1, 2, bad]])


def test_grid_ignores_offroad_and_offgrid_cells():
    # cells (0, 0), (1, 0) and (1, 1), plus a bit past the 2 x 2 grid
    obj = GridCoverageObjective(["#.", ".."], [[0b1011 | 1 << 15]])
    assert obj.evaluate(obj.ground()) == 1.0
    assert obj.road_cell_count == 1


def test_covered_cells_matches_value():
    obj, _ = coverage_instance(42)
    sel = [obj.actions(i)[0] for i in range(obj.n_agents)]
    assert obj.evaluate(sel) == float(obj.covered_cells(sel))


def test_modular_curvature_is_zero():
    assert curvature(modular_objective([2, 2])) == 0.0
    assert validate_structure(modular_objective([2, 2])).kappa == 0.0
    assert total_curvature(modular_objective([2, 2])) == 0.0


def test_identical_footprints_curvature_is_one():
    obj = GridCoverageObjective(["##"], [[0b11], [0b11]])
    assert curvature(obj) == 1.0


def test_curvature_rejects_zero_valued_singleton():
    obj = GridCoverageObjective(["#."], [[0b01], [0b10]])  # agent 1 covers no road
    with pytest.raises(ValueError):
        curvature(obj)


# coverage functions are submodular, so the cheap largest-context identity
# must agree with the exponential double minimization
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_curvature_identity_matches_exhaustive(seed):
    obj, _ = coverage_instance(seed, max_agents=3, max_actions=3)
    assert math.isclose(curvature(obj), validate_structure(obj).kappa, abs_tol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_total_curvature_equals_curvature_when_submodular(seed):
    obj, _ = coverage_instance(seed, max_agents=3, max_actions=3)
    assert math.isclose(total_curvature(obj), curvature(obj), abs_tol=1e-12)


def test_total_curvature_of_supermodular_toy():
    # gains of |A|^2 grow 1, 3, 5 with context size: min/max ratio 1/5
    assert math.isclose(total_curvature(supermodular_toy()), 0.8, rel_tol=1e-12)


def test_total_curvature_undefined_when_no_element_ever_gains():
    obj = CallableObjective([1, 1], lambda s: 0.0)
    with pytest.raises(ValueError):
        total_curvature(obj)


def test_exhaustive_checks_guard_ground_size():
    obj = modular_objective([3] * 6)  # 18 elements
    with pytest.raises(ValueError):
        total_curvature(obj)
    with pytest.raises(ValueError):
        validate_structure(obj)


def test_subset_value_table_indexing():
    obj = modular_objective([1, 1])
    table = subset_value_table(obj, obj.ground())
    assert table == [0.0, 1.0, 1.0, 2.0]
    assert obj.eval_count == 4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_small_coverage_instances_pass_all_structure_checks(seed):
    obj, _ = coverage_instance(seed, max_agents=4, max_actions=3)
    if len(obj.ground()) > 12:
        return
    report = validate_structure(obj)
    assert report.is_monotone
    assert report.is_submodular
    assert report.is_second_order_submodular


def test_supermodular_toy_structure():
    report = validate_structure(supermodular_toy())
    assert report.is_monotone
    assert not report.is_submodular
    # the defining inequality holds with equality (-2 >= -2) for |A|^2
    assert report.is_second_order_submodular
    assert report.kappa == 0.0
    assert math.isclose(report.c_total, 0.8, rel_tol=1e-12)


def test_logdet_toy_structure():
    report = validate_structure(logdet_toy())
    assert report.is_monotone
    assert report.is_submodular
    assert report.is_second_order_submodular
    # submodular, so both curvature notions coincide
    assert math.isclose(report.kappa, 0.16099716955709276, rel_tol=1e-12)
    assert math.isclose(report.c_total, report.kappa, rel_tol=1e-12)


def test_validator_rejects_zero_valued_singleton():
    obj = CallableObjective([1, 1], lambda s: float(any(e.agent == 0 for e in s)))
    with pytest.raises(ValueError):
        validate_structure(obj)


def test_validator_flags_non_monotone_function():
    values = {0: 0.0, 1: 1.0, 2: 1.0, 3: 0.5}  # the pair is worth less than each single
    obj = CallableObjective(
        [1, 1], lambda s: values[sum(1 << e.agent for e in s)]
    )
    report = validate_structure(obj)
    assert not report.is_monotone
    assert math.isnan(report.kappa) and math.isnan(report.c_total)


def _full_submodular(table, m):
    # textbook form: f(s|A) >= f(s|B) for all A subset of B, s outside B
    for s in range(m):
        bit = 1 << s
        for b in range(1 << m):
            if b & bit:
                continue
            a = b
            while True:  # enumerate submasks of b
                if table[a | bit] - table[a] < table[b | bit] - table[b] - 1e-9:
                    return False
                if a == 0:
                    break
                a = (a - 1) & b
    return True


def _full_second_order(table, m):
    # f(s|C) - f(s|A+C) >= f(s|B+C) - f(s|A+B+C) for disjoint A, B, C
    masks = range(1 << m)
    for s in range(m):
        bit = 1 << s
        for a in masks:
            if a & bit:
                continue
            for b in masks:
                if b & (a | bit):
                    continue
                for c_ in masks:
                    if c_ & (a | b | bit):
                        continue
                    lhs = (table[c_ | bit] - table[c_]) - (table[a | c_ | bit] - table[a | c_])
                    rhs = (table[b | c_ | bit] - table[b | c_]) - (
                        table[a | b | c_ | bit] - table[a | b | c_]
                    )
                    if lhs < rhs - 1e-9:
                        return False
    return True


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_single_extension_checks_equal_fully_quantified_forms(seed):
    obj, _ = coverage_instance(seed, max_agents=3, max_actions=2)
    elements = obj.ground()
    report = validate_structure(obj)
    table = subset_value_table(obj, elements)
    assert report.is_submodular == _full_submodular(table, len(elements))
    assert report.is_second_order_submodular == _full_second_order(table, len(elements))


def test_fully_quantified_oracle_agrees_on_supermodular_toy():
    obj = supermodular_toy()
    table = subset_value_table(obj, obj.ground())
    assert not _full_submodular(table, 3)
    assert _full_second_order(table, 3)


def old_table_curvature(table, m):
    """_table_curvature as it was: one comparison per element and context (verbatim)."""
    _clamp_unit = objective._clamp_unit
    worst = math.inf
    for j in range(m):
        bit = 1 << j
        f_single = table[bit]
        for mask in range(1 << m):
            if mask & bit:
                continue
            worst = min(worst, (table[mask | bit] - table[mask]) / f_single)
    return _clamp_unit(1.0 - worst, "curvature")


def old_table_total_curvature(table, m):
    """_table_total_curvature as it was (verbatim)."""
    _clamp_unit = objective._clamp_unit
    worst = math.inf
    skipped = 0
    for j in range(m):
        bit = 1 << j
        lo = math.inf
        hi = -math.inf
        for mask in range(1 << m):
            if mask & bit:
                continue
            gain = table[mask | bit] - table[mask]
            lo = min(lo, gain)
            hi = max(hi, gain)
        if hi == 0:
            skipped += 1
            continue
        worst = min(worst, lo / hi)
    if skipped == m:
        raise ValueError("total curvature undefined: every element has zero gain everywhere")
    return _clamp_unit(1.0 - worst, "total curvature")


def old_table_structure(table, m):
    """_table_structure as it was: every pair twice, every triple three times (verbatim)."""
    _EPS = objective._EPS
    _table_curvature = old_table_curvature
    _table_total_curvature = old_table_total_curvature
    full = 1 << m
    bits = [1 << j for j in range(m)]
    monotone = True
    submodular = True
    second_order = True
    for mask in range(full):
        free = [j for j in range(m) if not mask & bits[j]]
        base = table[mask]
        for sj in free:
            s = bits[sj]
            gain_s = table[mask | s] - base
            if gain_s < -_EPS:
                monotone = False
            for yj in free:
                if yj == sj:
                    continue
                y = bits[yj]
                gain_s_y = table[mask | y | s] - table[mask | y]
                if gain_s - gain_s_y < -_EPS:
                    submodular = False
                # x < y suffices: the 2nd-order inequality is symmetric in x, y
                for xj in free:
                    if xj >= yj or xj == sj:
                        continue
                    x = bits[xj]
                    lhs = gain_s - (table[mask | x | s] - table[mask | x])
                    rhs = gain_s_y - (table[mask | x | y | s] - table[mask | x | y])
                    if lhs - rhs < -_EPS:
                        second_order = False

    if monotone:
        kappa = _table_curvature(table, m)
        c_total = _table_total_curvature(table, m)
    else:
        # both measures presume non-negative marginal gains
        kappa = c_total = math.nan
    return StructureReport(
        kappa=kappa,
        c_total=c_total,
        is_monotone=monotone,
        is_submodular=submodular,
        is_second_order_submodular=second_order,
    )


def structure_or_error(check, table, m):
    try:
        report = check(table, m)
    except (ValueError, ZeroDivisionError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return repr(report)  # repr, so that NaN measures compare equal


def table_objective(table):
    """One action per agent and f(S) = table[bitmask of S]: the objective whose subset table is table."""
    return CallableObjective([1] * (len(table).bit_length() - 1), lambda sel: table[sum(1 << e.agent for e in sel)])


def assert_structure_matches_the_old_checks(table, m):
    """Returns the reference's flags, or None when it raised."""
    old = structure_or_error(old_table_structure, table, m)
    if all(table[1 << j] != 0 for j in range(m)):  # validate_structure rejects zero singletons first
        assert structure_or_error(objective._table_structure, table, m) == old
    # the total curvature on its own also serves non-monotone tables
    old_c = structure_or_error(old_table_total_curvature, table, m)
    assert structure_or_error(lambda t, _: total_curvature(table_objective(t)), table, m) == old_c
    try:
        ref = old_table_structure(table, m)
    except (ValueError, ZeroDivisionError):
        return None
    # bound_report's terms: the same total curvature, and the reference's submodularity
    terms = structure_or_error(lambda t, _: objective._table_terms(table_objective(t), True), table, m)
    assert terms == (old_c if isinstance(old_c, tuple) else f"({old_c}, {ref.is_submodular})")
    return ref.is_monotone, ref.is_submodular, ref.is_second_order_submodular


# g(sum of element weights) for integer weights: the sign of g's second and
# third differences decides submodularity and 2nd-order submodularity
SHAPES = {
    "sqrt": lambda w: w**0.5,  # monotone, submodular, 2nd-order
    "linear": lambda w: w,  # modular: every difference is 0
    "pow1.5": lambda w: w**1.5,  # monotone, neither
    "square": lambda w: w * w,  # monotone, supermodular, 3rd difference 0
    "cap3": lambda w: min(w, 3),  # monotone, submodular, not 2nd-order
    "hill": lambda w: w * (5 - w),  # not monotone, submodular, 3rd difference 0
    "cap3-down": lambda w: min(w, 3) - 0.5 * w,  # not monotone, submodular, not 2nd-order
    "bowl": lambda w: (w - 3) ** 2 - 9,  # not monotone, supermodular, 3rd difference 0
}


def weight_table(shape, weights):
    m = len(weights)
    return [
        float(SHAPES[shape](sum(w for j, w in enumerate(weights) if mask >> j & 1)))
        for mask in range(1 << m)
    ]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SHAPES)), st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_structure_checks_match_the_old_checks_on_weight_tables(shape, weights):
    assert_structure_matches_the_old_checks(weight_table(shape, weights), len(weights))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda m: st.lists(st.integers(-8, 24), min_size=(1 << m) - 1, max_size=(1 << m) - 1)
))
def test_structure_checks_match_the_old_checks_on_random_tables(quarters):
    # quarter units keep every difference exact; the values are mostly not monotone
    table = [0.0] + [q / 4 for q in quarters]
    assert_structure_matches_the_old_checks(table, len(table).bit_length() - 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_structure_checks_match_the_old_checks_on_coverage_tables(seed):
    obj, _ = coverage_instance(seed, max_agents=3, max_actions=3)
    table = subset_value_table(obj, obj.ground())
    assert assert_structure_matches_the_old_checks(table, len(obj.ground())) == (True, True, True)


def test_structure_check_inputs_reach_every_flag_combination():
    seen = set()
    for shape in SHAPES:
        for weights in ([1, 1, 1], [1, 2, 3, 1], [2, 2, 2, 2, 2]):
            seen.add(assert_structure_matches_the_old_checks(weight_table(shape, weights), len(weights)))
    rng = random.Random(5)
    for _ in range(20):
        table = [0.0] + [rng.randint(-8, 24) / 4 for _ in range(15)]
        seen.add(assert_structure_matches_the_old_checks(table, 4))
    assert seen - {None} == {(a, b, c) for a in (True, False) for b in (True, False) for c in (True, False)}


def test_monotonicity_is_checked_past_a_2nd_order_violation():
    # element 0 gains everywhere and already breaks 2nd-order submodularity;
    # only element 1 loses value (f({1}) < 0), so the checks may not stop there
    table = [0.0, 1.75, -1.75, 0.75, 0.75, 5.25, 0.75, 1.5]
    assert assert_structure_matches_the_old_checks(table, 3) == (False, False, False)


def test_submodularity_is_checked_past_monotonicity_and_2nd_order_violations():
    # element 0 already breaks monotonicity and 2nd-order submodularity, and
    # its own gains are submodular: only elements 1 and 2 break submodularity
    table = [0.0, 6.0, -0.5, 0.5, 4.25, 3.75, 5.75, -1.75]
    assert assert_structure_matches_the_old_checks(table, 3) == (False, False, False)


def test_structure_checks_treat_nan_as_no_violation_like_the_old_checks():
    for table in ([0.0, 1.0, 1.0, math.nan], [0.0, math.nan, 1.0, 5.0], [0.0, math.nan, 1.0, 0.5]):
        assert_structure_matches_the_old_checks(table, 2)
    # f(s | A) for s = element 0 reads [nan, 1, 1, 7]: the NaN leads the
    # differences along element 1, [nan, 6], and must not hide the 6
    table = [0.0, math.nan, 1.0, 2.0, 1.0, 2.0, 2.0, 9.0]
    assert_structure_matches_the_old_checks(table, 3)
    assert not objective._table_terms(table_objective(table), True)[1]
    assert objective._table_terms(table_objective([0.0, math.nan, 1.0, 1.0]), True)[1]
    # element 0's gains read [nan, 1, 4, 4]: its ratio 1/4 is the worst
    table = [0.0, math.nan, 1.0, 2.0, 2.0, 6.0, 3.0, 7.0]
    assert_structure_matches_the_old_checks(table, 3)
    assert total_curvature(table_objective(table)) == 0.75


def _joint_actions(obj, rng):
    return tuple(rng.choice(obj.actions(i)) for i in range(obj.n_agents))


def test_coin_zero_when_everyone_is_a_neighbor():
    obj, _ = coverage_instance(7)
    rng = random.Random(7)
    actions = _joint_actions(obj, rng)
    for i in range(obj.n_agents):
        assert coin(obj, i, actions, set(range(obj.n_agents)) - {i}) == 0.0


def test_coin_zero_on_disjoint_footprints():
    mask = ["######"]
    fps = [[0b11], [0b1100], [0b11_0000]]
    obj = GridCoverageObjective(mask, fps)
    actions = tuple(obj.actions(i)[0] for i in range(3))
    for nbh in (set(), {1}, {1, 2}):
        assert coin(obj, 0, actions, nbh) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_coin_empty_neighborhood_capped_by_curvature(seed):
    obj, _ = coverage_instance(seed, max_agents=4, max_actions=3)
    rng = random.Random(seed)
    actions = _joint_actions(obj, rng)
    kappa = curvature(obj)
    for i in range(obj.n_agents):
        value = coin(obj, i, actions, set())
        single = obj.evaluate([actions[i]])
        assert -1e-9 <= value <= kappa * single + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_coin_is_non_increasing_in_the_neighborhood(seed, nbh_seed):
    obj, _ = coverage_instance(seed, max_agents=5, max_actions=3)
    rng = random.Random(nbh_seed)
    actions = _joint_actions(obj, rng)
    i = rng.randrange(obj.n_agents)
    others = [j for j in range(obj.n_agents) if j != i]
    smaller = {j for j in others if rng.random() < 0.5}
    larger = smaller | {j for j in others if rng.random() < 0.5}
    assert coin(obj, i, actions, larger) <= coin(obj, i, actions, smaller) + 1e-9


def test_coin_costs_three_evaluations():
    obj, _ = coverage_instance(3)
    actions = tuple(obj.actions(i)[0] for i in range(obj.n_agents))
    obj.eval_count = 0
    coin(obj, 0, actions, set())
    assert obj.eval_count == 3


def test_coin_input_validation():
    obj = modular_objective([1, 1, 1])
    actions = tuple(obj.actions(i)[0] for i in range(3))
    with pytest.raises(ValueError):
        coin(obj, 0, actions, {0})
    with pytest.raises(ValueError):
        coin(obj, 0, actions[:2], set())
    with pytest.raises(ValueError):
        coin(obj, 0, actions, {7})


@pytest.mark.parametrize(
    "r_s,r_i,expected",
    [
        (1.0, 2.0, 0.0),
        (1.0, 1.0, math.pi),
        (1.0, 0.0, 0.0),
        (2.0, 4.0, 0.0),
        (2.0, 2.0, 4 * math.pi),
    ],
)
def test_ring_bound_values(r_s, r_i, expected):
    assert math.isclose(coin_ring_bound(r_s, r_i), expected, abs_tol=1e-12)


def test_ring_bound_decreases_beyond_the_radius_and_dies_at_twice_it():
    values = [coin_ring_bound(1.0, 1.0 + j / 10) for j in range(11)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(coin_ring_bound(1.0, 2.0 + j / 10) == 0.0 for j in range(10))


def test_ring_bound_domain_errors():
    with pytest.raises(ValueError):
        coin_ring_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        coin_ring_bound(1.0, -0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ring_bound_rejects_non_finite_inputs_by_name(bad):
    with pytest.raises(ValueError, match="r_s"):
        coin_ring_bound(bad, 1.0)
    with pytest.raises(ValueError, match="r_i"):
        coin_ring_bound(1.0, bad)


@pytest.mark.parametrize(
    "r_s, r_i, message",
    [
        (1e308, 1.5, r"^sensing radius r_s 1e\+308 is too large: pi times its square is past the float range$"),
        (1.0, 1e308, r"^separation distance r_i 1e\+308 is too large: pi times its square is past the float range$"),
        (10**400, 1.0, "^sensing radius r_s is past the float range$"),
        (1.0, 10**400, "^separation distance r_i is past the float range$"),
    ],
    ids=["r_s-1e308", "r_i-1e308", "r_s-10^400", "r_i-10^400"],
)
def test_ring_bound_names_a_distance_past_the_float_range(r_s, r_i, message):
    with pytest.raises(ValueError, match=message):
        coin_ring_bound(r_s, r_i)


def test_disk_value_is_rasterized_area():
    disk = DiskCoverageObjective([[(5.0, 5.0)]], 1.0, arena=(0.0, 0.0, 10.0, 10.0), resolution=10)
    area = disk.evaluate(disk.ground())
    # one boundary-cell layer of tolerance around the circle
    assert abs(area - math.pi) <= 2 * math.pi * 1.0 * 0.1 + disk.cell_area


def test_disk_union_no_larger_than_sum():
    disk = DiskCoverageObjective(
        [[(4.0, 5.0)], [(5.0, 5.0)]], 1.0, arena=(0.0, 0.0, 10.0, 10.0)
    )
    a, b = disk.ground()
    assert disk.evaluate([a, b]) <= disk.evaluate([a]) + disk.evaluate([b])
    assert disk.evaluate([a, b]) < disk.evaluate([a]) + disk.evaluate([b])  # they overlap


def test_disk_validation():
    with pytest.raises(ValueError):
        DiskCoverageObjective([[(0.0, 0.0)]], 0.0, arena=(0, 0, 1, 1))
    with pytest.raises(ValueError):
        DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=(0, 0, 1, 1), resolution=0)
    with pytest.raises(ValueError, match="whole number"):
        # a fractional resolution used to size the grid at 2.5 but rasterize at 2
        DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=(0, 0, 1, 1), resolution=2.5)
    with pytest.raises(ValueError):
        DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=(1, 0, 0, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_disk_rejects_non_finite_inputs_by_name(bad):
    with pytest.raises(ValueError, match="sensing_radius"):
        DiskCoverageObjective([[(0.0, 0.0)]], bad, arena=(0, 0, 1, 1))
    with pytest.raises(ValueError, match="resolution"):
        DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=(0, 0, 1, 1), resolution=bad)
    for k, name in enumerate(("xmin", "ymin", "xmax", "ymax")):
        arena = [0.0, 0.0, 1.0, 1.0]
        arena[k] = bad
        with pytest.raises(ValueError, match=f"arena bound {name}"):
            DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=tuple(arena))
    for center in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(ValueError, match="center of agent 1 action 0"):
            DiskCoverageObjective([[(0.5, 0.5)], [center]], 1.0, arena=(0, 0, 1, 1))


def test_disk_rejects_integers_past_the_float_range_by_name():
    huge = 10**400
    with pytest.raises(ValueError, match="^sensing_radius is past the float range$"):
        DiskCoverageObjective([[(0.0, 0.0)]], huge, arena=(0, 0, 1, 1))
    with pytest.raises(ValueError, match="^resolution is past the float range$"):
        DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=(0, 0, 1, 1), resolution=huge)
    for k, name in enumerate(("xmin", "ymin", "xmax", "ymax")):
        arena = [0, 0, 1, 1]
        arena[k] = huge if k >= 2 else -huge
        with pytest.raises(ValueError, match=f"^arena bound {name} is past the float range$"):
            DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=tuple(arena))
    for center in ((huge, 0.5), (0.5, -huge)):
        with pytest.raises(ValueError, match="^centers hold a coordinate past the float range$"):
            DiskCoverageObjective([[(0.5, 0.5)], [center]], 1.0, arena=(0, 0, 1, 1))


@pytest.mark.parametrize(
    "arena, resolution",
    [
        ((0.0, 0.0, 2049.0, 2048.0), 1),
        ((0.0, 0.0, 10.0, 10.0), 10**308),
        ((-1e308, 0.0, 1e308, 1.0), 1),
    ],
    ids=["one-row-past-the-limit", "cells-past-the-float-range", "meters-past-the-float-range"],
)
def test_disk_refuses_an_arena_past_the_cell_limit_by_name(arena, resolution):
    with pytest.raises(ValueError, match=rf"^the arena at resolution {resolution} has more than 4,194,304 cells$"):
        DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=arena, resolution=resolution)
    # the limit itself is admitted
    disk = DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=(0.0, 0.0, 2048.0, 2048.0), resolution=1)
    assert disk._nx * disk._ny == objective._MISSION_SIZE_LIMIT


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3.0, 13.0),
    st.floats(-3.0, 13.0),
    st.floats(0.05, 6.0),
    st.integers(1, 7),
    st.floats(-2.0, 2.0),
    st.floats(0.3, 9.0),
)
def test_disk_rows_shifted_once_match_the_per_cell_mask(cx, cy, radius, resolution, lo, side):
    disk = DiskCoverageObjective([[(cx, cy)]], radius, arena=(lo, lo, lo + side, lo + 0.7 * side), resolution=resolution)
    assert disk._disk_mask((cx, cy)) == disk_mask(disk, (cx, cy))


def test_disk_far_outside_the_arena_covers_nothing():
    # the last centre is just outside; the others used to overflow math.floor with an inf
    centers = [(1e308, 5.0), (-1e308, 5.0), (5.0, 1e308), (5.0, -1e308), (1e308, -1e308), (11.5, 5.0)]
    disk = DiskCoverageObjective([centers], 1.0, arena=(0.0, 0.0, 10.0, 10.0))
    assert [disk.evaluate([e]) for e in disk.ground()] == [0.0] * len(centers)


@pytest.mark.parametrize("resolution", [10**160, 1e160], ids=["int", "float"])
def test_disk_refuses_a_resolution_whose_square_is_past_the_float_range(resolution):
    # one cell of a 1e-300 m arena: within the cell limit, so the cell area is what overflows
    with pytest.raises(ValueError, match="^resolution squared is past the float range$"):
        DiskCoverageObjective([[(0.0, 0.0)]], 1.0, arena=(0.0, 0.0, 1e-300, 1e-300), resolution=resolution)


@pytest.mark.parametrize(
    "radius", [1e200, 10**200, math.nextafter(_RADIUS_LIMIT, math.inf)], ids=["float", "int", "edge"]
)
@pytest.mark.parametrize("center", [(5.0, 1e200), (1e200, 5.0)])
def test_disk_refuses_a_radius_whose_square_is_past_the_float_range(radius, center):
    with pytest.raises(ValueError, match="^sensing_radius .+ is too large: its square is past the float range$"):
        DiskCoverageObjective([[center]], radius, arena=(0.0, 0.0, 10.0, 10.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.floats(min_value=1e-3, max_value=_RADIUS_LIMIT),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_disk_of_any_admitted_radius_and_centre_builds_without_overflow(radius, cx, cy):
    # _disk_mask squares only the offsets of cells within the disk's clamped
    # span, which an admitted radius keeps within the float range
    disk = DiskCoverageObjective([[(cx, cy)]], radius, arena=(0.0, 0.0, 10.0, 10.0))
    assert 0.0 <= disk.evaluate(disk.ground()) <= 100.0


def test_parse_road_mask_roundtrip():
    rows = parse_road_mask("##.\n.#.\n\n")
    assert rows == ["##.", ".#."]


def test_parse_road_mask_errors_name_the_row():
    with pytest.raises(ValueError, match="row 1"):
        parse_road_mask("##\n#\n")
    with pytest.raises(ValueError, match="row 0"):
        parse_road_mask("#x\n##\n")
    with pytest.raises(ValueError):
        parse_road_mask("   \n")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 1.0))
def test_random_road_mask_hits_density_deterministically(seed, density):
    rows = random_road_mask(random.Random(seed), 12, 9, density, corridor_width=2)
    again = random_road_mask(random.Random(seed), 12, 9, density, corridor_width=2)
    assert rows == again
    assert len(rows) == 9 and all(len(r) == 12 for r in rows)
    assert set("".join(rows)) <= {"#", "."}
    assert sum(r.count("#") for r in rows) >= density * 12 * 9


def old_random_road_mask(rng, width, height, density, corridor_width=1):
    """random_road_mask before its three carving loops became one helper, verbatim."""
    if width < 1 or height < 1:
        raise ValueError("mask dimensions must be positive")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if corridor_width < 1:
        raise ValueError("corridor width must be positive")
    road = [[False] * width for _ in range(height)]
    total = width * height
    covered = 0
    carves = 0
    while covered < density * total:
        carves += 1
        if carves > 20 * (width + height):
            # random carving stalled near full density; fill rows top-down
            for y in range(height):
                for x in range(width):
                    if not road[y][x]:
                        road[y][x] = True
                        covered += 1
                if covered >= density * total:
                    break
            break
        horizontal = rng.random() < 0.5
        if horizontal:
            y0 = rng.randrange(height)
            for y in range(y0, min(y0 + corridor_width, height)):
                for x in range(width):
                    if not road[y][x]:
                        road[y][x] = True
                        covered += 1
        else:
            x0 = rng.randrange(width)
            for x in range(x0, min(x0 + corridor_width, width)):
                for y in range(height):
                    if not road[y][x]:
                        road[y][x] = True
                        covered += 1
    return ["".join("#" if c else "." for c in row) for row in road]


class StuckRandom(random.Random):
    """Always carves the corridor at index 0, so carving stalls and the top-down fill runs."""

    def randrange(self, *args):
        return 0


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    width=st.integers(1, 30),
    height=st.integers(1, 30),
    density=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    corridor_width=st.integers(1, 4),
    stuck=st.booleans(),
)
def test_random_road_mask_matches_the_three_loop_version(seed, width, height, density, corridor_width, stuck):
    rng_type = StuckRandom if stuck else random.Random
    new_rng, old_rng = rng_type(seed), rng_type(seed)
    rows = random_road_mask(new_rng, width, height, density, corridor_width)
    assert rows == old_random_road_mask(old_rng, width, height, density, corridor_width)
    assert new_rng.getstate() == old_rng.getstate()
    if density == 1.0:
        assert set("".join(rows)) == {"#"}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    width=st.integers(1, 40),
    height=st.integers(1, 40),
    density=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    corridor_width=st.integers(1, 4),
    stuck=st.booleans(),
)
def test_random_road_mask_matches_the_list_of_bools_version(seed, width, height, density, corridor_width, stuck):
    rng_type = StuckRandom if stuck else random.Random
    new_rng, old_rng = rng_type(seed), rng_type(seed)
    rows = random_road_mask(new_rng, width, height, density, corridor_width)
    assert rows == list_road_mask(old_rng, width, height, density, corridor_width)
    assert new_rng.getstate() == old_rng.getstate()
    assert all(type(row) is str for row in rows)


@pytest.mark.parametrize("rows", [[], [""], ["", ""]])
def test_grid_objective_rejects_an_empty_road_mask_by_name(rows):
    with pytest.raises(ValueError, match="road mask is empty"):
        GridCoverageObjective(rows, [[0]])


def test_random_road_mask_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_road_mask(rng, 0, 5, 0.5)
    with pytest.raises(ValueError):
        random_road_mask(rng, 5, 5, 0.0)
    with pytest.raises(ValueError):
        random_road_mask(rng, 5, 5, 0.5, corridor_width=0)


def test_random_road_mask_refuses_a_size_past_the_limit_before_drawing():
    rng = random.Random(0)
    state = rng.getstate()
    for width, height in ((10**20, 1), (2049, 2048)):
        with pytest.raises(
            ValueError, match=f"^width x height may be at most 4,194,304 cells, got {width:,} x {height:,}$"
        ):
            random_road_mask(rng, width, height, 0.5)
    assert rng.getstate() == state


def test_rect_footprint_clips_to_grid():
    assert rect_footprint(0, 0, 3, 3, 10, 10) == frozenset(
        {(0, 0), (1, 0), (0, 1), (1, 1)}
    )
    assert len(rect_footprint(5, 5, 3, 3, 10, 10)) == 9
    assert rect_footprint(9, 9, 3, 3, 10, 10) == frozenset(
        {(8, 8), (9, 8), (8, 9), (9, 9)}
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9), st.integers(1, 9), st.integers(-4, 12), st.integers(-4, 12),
    st.integers(1, 11), st.integers(1, 11), st.just(objective._WINDOW_BITS) | st.integers(1, 64),
)
def test_rect_mask_is_the_footprint_as_bits(width, height, cx, cy, fov_w, fov_h, window_bits):
    # rect_mask joins _box_windows' windows, so narrow windows split its rows between them
    cells = rect_footprint(cx, cy, fov_w, fov_h, width, height)
    expected = sum(1 << (y * width + x) for x, y in cells)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objective, "_WINDOW_BITS", window_bits)
        assert rect_mask(cx, cy, fov_w, fov_h, width, height) == expected


def test_road_bits_number_cells_row_major():
    assert road_bits(["#..", ".#.", "..#"]) == 0b100010001
    assert road_bits(["##.", "..."]) == 0b11
    assert road_bits(["...."]) == 0

