"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with -s to see them inline)
and enforces its own wall-clock budget. Tolerances are stated next to each
assertion; "exact" means float equality of the produced number against the
documented closed form evaluated at the same delay constants.
"""

import csv
import math
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest
from scipy import stats

from meshcoord.bounds import (
    aposteriori_bound,
    apriori_bound,
    approx_greedy_bound,
)
from meshcoord.cli import main
from meshcoord.coordination import (
    brute_force_optimum,
    run_rag,
    run_sg,
)
from meshcoord.instances import (
    random_coverage_instance,
    reference_line_instance,
    reference_star_instance,
    scaling_instance,
    supermodular_toy,
)
from meshcoord.objective import DiskCoverageObjective, coin, coin_ring_bound, validate_structure
from meshcoord.scenario import MissionConfig, monte_carlo
from meshcoord.timing import DelayModel, decision_time, rag_time_bound
from meshcoord.topology import knn_graph, worst_case_cycle

DM = DelayModel(tau_f=0.001, tau_c=0.8192, tau_hash=0.000256)  # 25 KiB at 0.25 Mbps


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")


def test_acceptance_1_reference_timings_exact():
    with criterion(1, "reference decision timings, exact", budget_s=1.0):
        for make in (reference_line_instance, reference_star_instance):
            obj, g, _ = make()
            out = run_rag(obj, g)
            t = decision_time(out, DM).seconds
            assert t == 2 * 4 * DM.tau_f + DM.tau_c + DM.tau_hash

        obj, g, _ = reference_line_instance()
        line = decision_time(run_sg(obj, [0, 1, 2, 3, 4], g=g), DM).seconds
        assert line == 5 * 4 * DM.tau_f + 10 * DM.tau_c

        obj, g, _ = reference_star_instance()
        # natural order puts the hub (agent 1) second in the sequence
        star = decision_time(run_sg(obj, [0, 1, 2, 3, 4], g=g), DM).seconds
        assert star == 5 * 4 * DM.tau_f + 17 * DM.tau_c


@pytest.fixture(scope="module")
def certified_corpus():
    """1000 seeded instances with outcomes and brute-force optima, shared
    by the certification and counter criteria."""
    corpus = []
    start = time.perf_counter()
    for i in range(1000):
        rng = random.Random(f"acceptance:{i}")
        obj, g = random_coverage_instance(rng, max_agents=6, max_actions=4)
        out = run_rag(obj, g)
        _, opt = brute_force_optimum(obj)
        corpus.append((i, obj, g, out, opt))
    return time.perf_counter() - start, corpus


def test_acceptance_2_bound_certification(certified_corpus):
    build_s, corpus = certified_corpus
    with criterion(2, "1000-instance bound certification", budget_s=120.0 - build_s):
        violations = []
        for i, obj, g, out, opt in corpus:
            if out.value < apriori_bound(obj, g, out, optimum_value=opt) - 1e-9:
                violations.append((i, "apriori"))
            if out.value < aposteriori_bound(obj, out, optimum_value=opt) - 1e-9:
                violations.append((i, "aposteriori"))
            order = list(range(obj.n_agents))
            random.Random(f"acceptance:{i}:order").shuffle(order)
            sg = run_sg(obj, order)
            if sg.value < opt / 2 - 1e-9:
                violations.append((i, "sg-half"))
        assert violations == [], violations[:5]


def test_acceptance_3_eta_consistency():
    with criterion(3, "eta-approximate selector bounds", budget_s=60.0):
        for i in range(100):
            rng = random.Random(f"acceptance-eta:{i}")
            obj, g = random_coverage_instance(rng, max_agents=5, max_actions=3)
            out = run_rag(obj, g)
            # eta = 1 collapses the approximate bound onto the baseline one
            assert math.isclose(
                approx_greedy_bound(obj, g, out, eta=1.0),
                apriori_bound(obj, g, out),
                rel_tol=1e-12,
                abs_tol=1e-12,
            )
            half = run_rag(obj, g, eta=0.5, rng=random.Random(f"pick:{i}"))
            bound = approx_greedy_bound(obj, g, half, eta=0.5)
            assert half.value >= bound - 1e-9


def test_acceptance_4_complexity_counters(certified_corpus):
    _, corpus = certified_corpus
    with criterion(4, "evaluation and round counters", budget_s=60.0):
        for i, obj, g, out, _ in corpus:
            n = obj.n_agents
            for agent in range(n):
                # a first pass plus one recomputation per in-neighbor commit
                cap = obj.action_counts[agent] * (len(g.in_neighbors[agent]) + 1)
                assert out.eval_counts[agent] <= cap, (i, agent)
            round_cap = n - 1 if g.has_edges() else 0
            assert out.gain_rounds <= round_cap, i
            assert out.action_rounds <= round_cap, i
            t = decision_time(out, DM).seconds
            assert t <= rag_time_bound(g, DM, list(obj.action_counts)) + 1e-12, i


def test_acceptance_5_scaling_ratios():
    with criterion(5, "15-to-45-agent timing ratios", budget_s=300.0):
        trials = 30

        def rag_mean(n):
            times = []
            for t in range(trials):
                rng = random.Random(f"scale:{t}:{n}")
                obj, positions = scaling_instance(rng, n)
                g = knn_graph(positions, 3, math.inf)
                out = run_rag(obj, g)
                times.append(decision_time(out, DM).seconds)
            return statistics.fmean(times)

        rag_ratio = rag_mean(45) / rag_mean(15)
        assert rag_ratio <= 3.5, rag_ratio

        def sg_line_mean(n):
            times = []
            for t in range(trials):
                rng = random.Random(f"sg-scale:{t}:{n}")
                obj, _ = scaling_instance(rng, n)
                order = list(range(n))
                rng.shuffle(order)
                out = run_sg(obj, order)  # deciders relay along the order: 1 hop each
                times.append(decision_time(out, DM).seconds)
            return statistics.fmean(times)

        sg_ratio = sg_line_mean(45) / sg_line_mean(15)
        assert sg_ratio >= 9.0, sg_ratio

        def sg_cycle_mean(n):
            times = []
            g = worst_case_cycle(n)
            for t in range(trials):
                rng = random.Random(f"sg-cycle:{t}:{n}")
                obj, _ = scaling_instance(rng, n)
                out = run_sg(obj, list(range(n)), g=g)
                times.append(decision_time(out, DM).seconds)
            return statistics.fmean(times)

        cycle_ratio = sg_cycle_mean(45) / sg_cycle_mean(15)
        assert cycle_ratio >= 25.0, cycle_ratio


def test_acceptance_6_coverage_trend():
    with criterion(6, "coverage and cost versus connectivity", budget_s=600.0):
        ks = (0, 1, 2, 4, 7)
        cfg = MissionConfig(
            n_agents=15,
            world_width=40,
            world_height=40,
            road_density=0.5,
            steps=16,
            move_magnitude=1,
            comm_range=50.0,
            spawn_width=4,
            spawn_height=4,
            trials=30,
            seed=0,
        )
        runs, summaries = monte_carlo([replace(cfg, algorithm="rag", k=k) for k in ks])
        peaks = [s.mean_peak_coverage for s in summaries]
        times = [s.mean_step_time_s for s in summaries]

        # the coverage trend is non-decreasing on average: fitted slope >= 0
        # and every coordinated variant beats no coordination outright
        slope = statistics.linear_regression(ks, peaks).slope
        assert slope >= 0.0, (slope, peaks)
        assert all(p > peaks[0] for p in peaks[1:]), peaks

        by_k = {k: [r.trace.peak_coverage for r in runs if r.k == k] for k in (0, 2)}
        test = stats.ttest_rel(by_k[2], by_k[0], alternative="greater")
        assert test.pvalue < 0.05, test.pvalue

        assert all(a < b for a, b in zip(times, times[1:])), times


def test_acceptance_7_structure_validators():
    with criterion(7, "structure validators and negative control", budget_s=120.0):
        checked = 0
        for i in range(300):
            rng = random.Random(f"acceptance-structure:{i}")
            obj, _ = random_coverage_instance(rng, max_agents=4, max_actions=3)
            if len(obj.ground()) > 12:
                continue
            report = validate_structure(obj)
            assert report.is_monotone, i
            assert report.is_submodular, i
            assert report.is_second_order_submodular, i
            checked += 1
        assert checked >= 200, checked

        toy = validate_structure(supermodular_toy())
        assert not toy.is_submodular
        assert toy.is_monotone


def test_acceptance_8_ring_bound_curve(tmp_path):
    with criterion(8, "information-overlap ring bound", budget_s=120.0):
        out = tmp_path / "figs"
        assert main(["figures", "--out", str(out)]) == 0
        with (out / "ring_bound.csv").open() as fh:
            rows = [(float(r["r_i"]), float(r["bound_m2"])) for r in csv.DictReader(fh)]
        assert rows, "empty ring CSV"
        r_s = 1.0
        for r_i, bound in rows:
            if r_i >= 2 * r_s:
                assert bound == 0.0, (r_i, bound)
        at_rs = dict(rows)[r_s]
        assert at_rs == math.pi * r_s**2

        # rasterized overlap measurements stay under the closed form, up to
        # one boundary-cell layer of the 10-cells-per-meter grid
        resolution = 10
        tol = 2 * math.pi * r_s / resolution
        rng = random.Random("acceptance-ring")
        for _ in range(100):
            d = r_s + 2 * r_s * rng.random()
            angle = rng.uniform(0, 2 * math.pi)
            a = (4.0, 4.0)
            b = (4.0 + d * math.cos(angle), 4.0 + d * math.sin(angle))
            obj = DiskCoverageObjective(
                [[a], [b]], r_s, arena=(0.0, 0.0, 9.0, 9.0), resolution=resolution
            )
            actions = [obj.actions(0)[0], obj.actions(1)[0]]
            overlap = coin(obj, 0, actions, frozenset())
            assert overlap <= coin_ring_bound(r_s, d) + tol, (d, overlap)
