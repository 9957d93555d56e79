import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coverage_instance
from meshcoord import bounds, objective
from meshcoord.bounds import (
    BoundReport,
    aposteriori_bound,
    apriori_bound,
    approx_greedy_bound,
    bound_report,
    coin_sum,
    curvature_only_bound,
)
from meshcoord.coordination import brute_force_optimum, run_rag, run_random_baseline
from meshcoord.instances import (
    logdet_toy,
    modular_objective,
    reference_line_instance,
    supermodular_toy,
)
from meshcoord.objective import (
    CallableObjective,
    DiskCoverageObjective,
    GroundElement,
    curvature,
    total_curvature,
    validate_structure,
)
from meshcoord.topology import complete_graph, edgeless_graph, is_complete, line_graph


def _terms(obj, g, out):
    """The measured terms of the coin-sum bounds: f(opt), kappa and the coin sum."""
    return brute_force_optimum(obj)[1], curvature(obj), coin_sum(obj, g, out.actions)


def test_complete_graph_apriori_reduces_to_centralized_form():
    obj, _, _ = reference_line_instance()
    g = complete_graph(5)
    out = run_rag(obj, g)
    assert coin_sum(obj, g, out.actions) == 0.0
    _, opt = brute_force_optimum(obj)
    k = curvature(obj)
    assert math.isclose(apriori_bound(*_terms(obj, g, out)), opt / (1 + k), rel_tol=1e-12)


def _overlapping_pair():
    # both agents can cover the same two cells, so isolation costs information
    from meshcoord.objective import GridCoverageObjective

    fps = [[0b011, 0b100], [0b011, 0b100]]
    return GridCoverageObjective(["###"], fps)


def test_missing_edges_show_up_as_coins_and_discount_the_bound():
    obj = _overlapping_pair()
    g = edgeless_graph(2)
    out = run_rag(obj, g)
    assert coin_sum(obj, g, out.actions) > 0.0
    assert apriori_bound(*_terms(obj, g, out)) < apriori_bound(*_terms(obj, complete_graph(2), out))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_value_meets_both_bounds(seed):
    obj, g = coverage_instance(seed, max_agents=4)
    out = run_rag(obj, g)
    opt, kappa, coins = _terms(obj, g, out)
    assert out.value >= apriori_bound(opt, kappa, coins) - 1e-9
    assert out.value >= aposteriori_bound(obj, out, opt, kappa) - 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_eta_one_approx_bound_coincides_with_apriori(seed):
    obj, g = coverage_instance(seed, max_agents=4)
    terms = _terms(obj, g, run_rag(obj, g))
    assert math.isclose(
        approx_greedy_bound(*terms, eta=1.0),
        apriori_bound(*terms),
        rel_tol=1e-12,
        abs_tol=1e-12,
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_eta_half_run_meets_its_own_bound(seed):
    obj, g = coverage_instance(seed, max_agents=4)
    out = run_rag(obj, g, eta=0.5, rng=random.Random(seed))
    assert out.value >= approx_greedy_bound(*_terms(obj, g, out), eta=0.5) - 1e-9


def test_approx_greedy_bound_validates_eta():
    obj, g, _ = reference_line_instance()
    terms = _terms(obj, g, run_rag(obj, g))
    with pytest.raises(ValueError):
        approx_greedy_bound(*terms, eta=0.0)
    with pytest.raises(ValueError):
        approx_greedy_bound(*terms, eta=1.5)


def test_aposteriori_needs_recorded_contexts():
    obj, g, _ = reference_line_instance()
    baseline = run_random_baseline(obj, random.Random(0))
    opt, kappa, _ = _terms(obj, g, baseline)
    with pytest.raises(ValueError, match="commit contexts"):
        aposteriori_bound(obj, baseline, opt, kappa)


@pytest.mark.parametrize("swap", [True, False])
def test_aposteriori_rejects_actions_not_of_the_objective(swap):
    # the first two agents' actions swapped, or an action agent 0 does not have
    obj, g, _ = reference_line_instance()
    out = run_rag(obj, g)
    kappa = curvature(obj)
    _, opt = brute_force_optimum(obj)
    a, b, *rest = out.actions
    bad = dataclasses.replace(out, actions=(b, a, *rest) if swap else (GroundElement(0, 7), b, *rest))
    for reject in (lambda: coin_sum(obj, g, bad.actions), lambda: aposteriori_bound(obj, bad, opt, kappa)):
        with pytest.raises(ValueError, match=r"^actions\[0\] is "):
            reject()


def test_curvature_only_submodular_cases():
    obj, g, _ = reference_line_instance()  # kappa == 1 by construction
    _, opt = brute_force_optimum(obj)
    kappa = curvature(obj)
    complete = curvature_only_bound(opt, is_complete(complete_graph(5)), True, kappa)
    assert math.isclose(complete, opt / 2, rel_tol=1e-12)
    assert curvature_only_bound(opt, is_complete(g), True, kappa) == 0.0


def test_curvature_only_beyond_submodular_cases():
    obj = supermodular_toy()
    _, opt = brute_force_optimum(obj)
    submodular, c = validate_structure(obj).is_submodular, total_curvature(obj)
    assert not submodular
    # c = 0.8: (1-c)/(1+c-c^2) * f(opt), then (1-c)^2 * f(opt) off-complete
    assert math.isclose(
        curvature_only_bound(opt, is_complete(complete_graph(3)), submodular, c),
        1.5517241379310343,
        rel_tol=1e-12,
    )
    assert math.isclose(
        curvature_only_bound(opt, is_complete(line_graph(3)), submodular, c), 0.36, rel_tol=1e-12
    )


HUGE = 10**400  # an int past the float range


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda obj, out: apriori_bound(HUGE, 0.5, 1.0), "opt"),
        (lambda obj, out: apriori_bound(1.0, HUGE, 1.0), "kappa"),
        (lambda obj, out: apriori_bound(1.0, 0.5, HUGE), "coins"),
        (lambda obj, out: approx_greedy_bound(HUGE, 0.5, 1.0, 1.0), "opt"),
        (lambda obj, out: approx_greedy_bound(1.0, 0.5, 1.0, HUGE), "eta"),
        (lambda obj, out: aposteriori_bound(obj, out, HUGE, 0.5), "opt"),
        (lambda obj, out: aposteriori_bound(obj, out, 1.0, HUGE), "kappa"),
        (lambda obj, out: curvature_only_bound(HUGE, True, True, 0.5), "opt"),
        (lambda obj, out: curvature_only_bound(1.0, False, True, HUGE), "k"),
    ],
    ids=["apriori-opt", "apriori-kappa", "apriori-coins", "approx-opt", "approx-eta",
         "aposteriori-opt", "aposteriori-kappa", "curvature-only-opt", "curvature-only-k"],
)
def test_bound_formulas_name_an_int_term_past_the_float_range(call, name):
    obj, g, _ = reference_line_instance()
    out = run_rag(obj, g)
    before = obj.eval_count
    with pytest.raises(ValueError, match=f"^{name} is past the float range$"):
        call(obj, out)
    assert obj.eval_count == before  # refused at entry, before any evaluation


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_bound_formulas_pass_non_finite_floats_through(value):
    # verify relies on a NaN bound failing its check, so a NaN term must still give one
    pairs = [
        (apriori_bound(value, 0.5, 1.0), (value - 0.5) / 1.5),
        (apriori_bound(1.0, 0.5, value), (1.0 - 0.5 * value) / 1.5),
        (approx_greedy_bound(value, 0.5, 1.0, 1.0), 1.0 / 1.5 * (value - 0.5)),
        (curvature_only_bound(value, False, True, 0.5), 0.5 * value),
        (curvature_only_bound(1.0, False, False, value), (1.0 - value) ** 2),
    ]
    for got, want in pairs:
        assert got == want or (math.isnan(got) and math.isnan(want))


def test_logdet_bound_holds_despite_weak_submodularity():
    obj = logdet_toy()
    g = complete_graph(3)
    out = run_rag(obj, g)
    assert out.value >= apriori_bound(*_terms(obj, g, out)) - 1e-9


def test_coin_sum_monotone_in_topology():
    obj, _, _ = reference_line_instance()
    out = run_rag(obj, complete_graph(5))
    isolated = coin_sum(obj, edgeless_graph(5), out.actions)
    lined = coin_sum(obj, line_graph(5), out.actions)
    connected = coin_sum(obj, complete_graph(5), out.actions)
    assert isolated >= lined >= connected == 0.0


def test_bound_report_certified_fields():
    obj, g, _ = reference_line_instance()
    out = run_rag(obj, g)
    rep = bound_report(obj, g, out)
    assert rep.certified
    assert rep.algorithm_value == out.value
    assert rep.kappa == 1.0
    assert rep.eta == 1.0
    assert rep.apriori_centralized == rep.optimum_value / 2
    assert rep.apriori_decentralized_floor == 0.0
    assert rep.aposteriori <= rep.algorithm_value + 1e-9
    # 20 ground elements: past the exhaustive-structure guard
    assert rep.c_total is None
    assert rep.curvature_only is None


def test_bound_report_small_ground_fills_everything():
    obj = logdet_toy()
    g = complete_graph(3)
    out = run_rag(obj, g)
    rep = bound_report(obj, g, out)
    assert rep.c_total is not None
    assert math.isclose(rep.c_total, rep.kappa, rel_tol=1e-12)
    assert rep.curvature_only is not None
    assert rep.certified


def test_coin_sum_zero_off_complete_when_footprints_are_disjoint():
    # the reference instance keeps agents' cells apart, so no agent's action
    # is informative about another's and the line topology costs nothing
    obj, g, _ = reference_line_instance()
    out = run_rag(obj, g)
    assert coin_sum(obj, edgeless_graph(5), out.actions) == 0.0
    assert apriori_bound(*_terms(obj, g, out)) == apriori_bound(*_terms(obj, complete_graph(5), out))


def old_bound_report(obj, g, outcome, eta=1.0, optimum_value=None, assume_submodular=None):
    """bound_report as it was: two subset tables and three coin sums.

    The table logic is verbatim; the terms each old bound function measured
    for itself (a coin sum, the curvature) are measured again at its call.
    """
    certified = optimum_value is None
    opt = brute_force_optimum(obj)[1] if certified else optimum_value
    kappa = curvature(obj)
    coins = coin_sum(obj, g, outcome.actions)

    submodular = assume_submodular
    c_total = None
    if len(obj.ground()) <= 16:
        c_total = total_curvature(obj)
        if submodular is None:
            submodular = validate_structure(obj).is_submodular
    curvature_only = None
    if submodular is not None:
        k = curvature(obj) if submodular else total_curvature(obj)
        curvature_only = curvature_only_bound(opt, is_complete(g), submodular, k)

    return BoundReport(
        algorithm_value=outcome.value,
        optimum_value=opt,
        apriori=apriori_bound(opt, kappa, coin_sum(obj, g, outcome.actions)),
        apriori_centralized=opt / (1.0 + kappa),
        apriori_decentralized_floor=(1.0 - kappa) * opt,
        aposteriori=aposteriori_bound(obj, outcome, opt, kappa),
        approx_greedy=approx_greedy_bound(opt, kappa, coin_sum(obj, g, outcome.actions), eta),
        curvature_only=curvature_only,
        coin_sum=coins,
        kappa=kappa,
        c_total=c_total,
        eta=eta,
        certified=certified,
    )


def report_and_evals(obj, report):
    before = obj.eval_count
    try:
        rep = report()
    except ValueError as exc:
        return ("error", str(exc)), 0
    return rep, obj.eval_count - before


def assert_report_matches_the_old_path(obj, g, out, **kwargs):
    """bound_report equals old_bound_report with submodularity decided, assume_submodular=None."""
    new, new_evals = report_and_evals(obj, lambda: bound_report(obj, g, out, **kwargs))
    old, old_evals = report_and_evals(obj, lambda: old_bound_report(obj, g, out, **kwargs))
    assert new == old
    assert new_evals <= old_evals
    if isinstance(new, BoundReport) and new.c_total is not None:
        assert new.c_total == total_curvature(obj)
    return new


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_bound_report_matches_the_two_table_path(seed):
    obj, g = coverage_instance(seed, max_agents=4)
    out = run_rag(obj, g)
    assert_report_matches_the_old_path(obj, g, out)


def complementary_pair_toy() -> CallableObjective:
    """Monotone, not submodular: agents 0 and 1 are worth more together."""
    values = {0: 0.0, 1: 2.0, 2: 2.0, 4: 2.0, 3: 5.0, 5: 4.0, 6: 4.0, 7: 6.5}
    return CallableObjective(
        [1, 1, 1], lambda s: values[sum(1 << e.agent for e in s if e.action == 0)]
    )


@pytest.mark.parametrize("make", [complementary_pair_toy, supermodular_toy, logdet_toy])
def test_bound_report_matches_the_two_table_path_off_submodularity(make):
    obj = make()
    for g in (complete_graph(3), line_graph(3)):
        out = run_rag(obj, g)
        rep = assert_report_matches_the_old_path(obj, g, out)
        if make is complementary_pair_toy:
            assert not validate_structure(obj).is_submodular
            assert isinstance(rep, BoundReport) and rep.curvature_only is not None


def test_bound_report_matches_the_old_path_on_its_errors():
    obj, g, _ = reference_line_instance()  # 20 elements, past the table guard
    out = run_rag(obj, g)
    # past the guard a report leaves the table terms out, and total_curvature raises
    rep = assert_report_matches_the_old_path(obj, g, out)
    assert rep.c_total is None and rep.curvature_only is None
    with pytest.raises(ValueError, match="^ground set of 20 elements exceeds the exhaustive-check limit of 16$"):
        total_curvature(obj)


def _count_tables_and_coin_sums(monkeypatch):
    """Counts subset_value_table and coin_sum calls from here on, in the returned dict."""
    calls = {"table": 0, "coins": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(objective, "subset_value_table", counted("table", objective.subset_value_table))
    monkeypatch.setattr(bounds, "coin_sum", counted("coins", bounds.coin_sum))
    return calls


def test_a_grid_bound_report_builds_no_table_and_charges_one(monkeypatch):
    """A grid report equals, charge for charge, the report of the same function as a
    CallableObjective, which builds the one table the grid report only charges."""
    calls = _count_tables_and_coin_sums(monkeypatch)
    reports = 0
    for seed in range(30):
        obj, g = coverage_instance(seed, max_agents=4)
        if len(obj.ground()) > 16:
            continue
        out = run_rag(obj, g)
        report, charged = report_and_evals(obj, lambda: bound_report(obj, g, out))
        assert calls == {"table": reports, "coins": 2 * reports + 1}
        assert isinstance(report, BoundReport) and charged >= 1 << len(obj.ground())
        twin = CallableObjective(obj.action_counts, obj.covered_cells)
        assert report_and_evals(twin, lambda: bound_report(twin, g, out)) == (report, charged)
        reports += 1
        assert calls == {"table": reports, "coins": 2 * reports}
    assert reports >= 10


@pytest.mark.parametrize("make", [complementary_pair_toy, logdet_toy, lambda: modular_objective([2, 1, 1])])
def test_a_callable_bound_report_builds_one_table(monkeypatch, make):
    calls = _count_tables_and_coin_sums(monkeypatch)
    obj = make()
    bound_report(obj, line_graph(3), run_rag(obj, line_graph(3)))
    assert calls == {"table": 1, "coins": 1}


def test_a_disk_bound_report_builds_one_table(monkeypatch):
    """Disk values are cell counts times 1/resolution^2, so their c_total still comes from the table."""
    calls = _count_tables_and_coin_sums(monkeypatch)
    rng = random.Random(7)
    for reports, resolution in enumerate([2, 3, 4, 10], start=1):
        obj = DiskCoverageObjective(
            [[(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(2)] for _ in range(3)],
            1.0,
            arena=(0.0, 0.0, 4.0, 4.0),
            resolution=resolution,
        )
        assert obj.cell_area != 1.0
        report = bound_report(obj, line_graph(3), run_rag(obj, line_graph(3)))
        assert report.c_total is not None
        assert calls == {"table": reports, "coins": reports}


def test_bound_report_never_runs_the_triple_pass(monkeypatch):
    def triple_pass(*args):
        raise AssertionError("bound_report ran the full structure check")

    reports = 0
    for seed in range(40):
        obj, g = coverage_instance(seed, max_agents=5, max_actions=3)
        if len(obj.ground()) > 16:
            continue
        out = run_rag(obj, g)
        old = old_bound_report(obj, g, out)
        with monkeypatch.context() as patched:
            patched.setattr(objective, "_table_structure", triple_pass)
            # also the name, in case bounds imports it
            patched.setattr(bounds, "_table_structure", triple_pass, raising=False)
            assert bound_report(obj, g, out) == old
        reports += 1
    assert reports >= 10


def zero_singleton_toy() -> CallableObjective:
    """Agent 1's only action is worth nothing."""
    return CallableObjective([1, 1], lambda s: float(any(e.agent == 0 for e in s)))


def test_validate_structure_rejects_a_zero_singleton_by_name():
    with pytest.raises(ValueError) as exc:
        validate_structure(zero_singleton_toy())
    assert str(exc.value) == (
        "structure validation rejected: f(GroundElement(agent=1, action=0)) = 0"
    )
