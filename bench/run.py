"""Wall-clock benchmark of meshcoord: one workload per run, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload mission-sweep --seed 0 --seconds 36 --trace 0

--trace 0 prints the end-to-end metrics (setup_s, items_per_s, peak_rss_mb),
measured with no tracing. --trace 1 repeats the untraced passes, then runs
traced passes and prints the per-layer metrics. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> span names whose self times it sums
SELF_TIMES = {
    "objective.evaluate_s": ("objective.evaluate",),
    "objective.build_s": ("objective.build",),
    "objective.rect_footprint_s": ("objective.rect_footprint",),
    "objective.subset_table_s": ("objective.subset_value_table",),
    "objective.validate_structure_s": ("objective.validate_structure",),
    "objective.curvature_s": (
        "objective.curvature", "objective.exhaustive_curvature", "objective.total_curvature",
    ),
    "objective.coin_s": ("objective.coin",),
    "topology.knn_graph_s": ("topology.knn_graph",),
    "topology.shortest_hops_s": ("topology.shortest_hops",),
    "topology.dfs_order_s": ("topology.dfs_order",),
    "topology.line_plus_s": ("topology.strongly_connected_line_plus",),
    "coordination.run_rag_s": ("coordination.run_rag",),
    "coordination.run_sg_s": ("coordination.run_sg",),
    "coordination.run_dsm_s": ("coordination.run_dsm",),
    "coordination.brute_force_s": ("coordination.brute_force_optimum",),
    "timing.decision_time_s": (
        "timing.rag_decision_time", "timing.sg_decision_time", "timing.rag_time_bound",
    ),
    "scenario.world_rebuild_s": ("scenario.run_mission",),
    "instances.scaling_instance_s": ("instances.scaling_instance",),
    "instances.random_coverage_instance_s": ("instances.random_coverage_instance",),
    "bounds.bound_report_s": ("bounds.bound_report",),
    "cli.write_s": ("cli.write_csv",),
    "cli.verify_s": ("cli.cmd_verify",),
}
CALLS = {
    "objective.evaluate_calls": "objective.evaluate",
    "objective.build_calls": "objective.build",
    "objective.subset_table_calls": "objective.subset_value_table",
    "objective.coin_calls": "objective.coin",
    "topology.knn_graph_calls": "topology.knn_graph",
    "topology.shortest_hops_calls": "topology.shortest_hops",
    "bounds.bound_report_calls": "bounds.bound_report",
}
COUNTS = (
    "objective.selection_elems",
    "coordination.rag_recomputes",
    "coordination.rag_iterations",
    "scenario.steps",
    "cli.pools_started",
)
RATES = (
    "missions_per_s",
    "rag_decisions_per_s",
    "sg_decisions_per_s",
    "dfs-sg_decisions_per_s",
    "dsm_decisions_per_s",
    "verify_instances_per_s",
    "bound_reports_per_s",
)
LAYERS = ("objective", "topology", "coordination", "timing", "scenario", "instances", "bounds", "cli")


def per_layer_units() -> dict[str, str]:
    units = {name: "1/s" for name in RATES}
    units["fail_frac"] = "ratio"
    units["check.golden_digests"] = "count"
    units.update({name: "s" for name in SELF_TIMES})
    units["scenario.run_mission_s"] = "s"
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in COUNTS})
    units["cli.monte_carlo_s"] = "s"
    units["cli.parallel_efficiency"] = "ratio"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.unattributed_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tally:
    """Counts operations and applies the golden gate to every op of every pass."""

    def __init__(self, expected: dict | None):
        self.expected = expected or {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.golden_checked = 0
        self.errors: dict[str, str] = {}

    def add(self, ops) -> None:
        for op in ops:
            want = self.expected.get(op.name)
            if want is not None and op.digest is not None:
                self.golden_checked += 1
                if op.digest != want:
                    op.failed, op.wrong = op.ops, True
                    op.error = op.error or "output differs from the golden digest"
            self.attempted += op.ops
            self.failed += op.failed
            self.correct = self.correct and not op.wrong
            if op.error:
                self.errors.setdefault(op.name, op.error)


def _rate(passes, key: str | None = None) -> float:
    """Items per second from each op's median time over the passes.

    Ops are matched by name across passes. Taking the median per op before
    summing keeps a burst of load on the shared machine during one op from
    moving the rate. Failed ops, and ops that are part of a failed op, are
    left out; key=None selects the in_total ops (items_per_s), otherwise the
    ops of that rate_key.
    """
    seconds: dict[str, list[float]] = {}
    items: dict[str, int] = {}
    for _, ops in passes:
        failed = {op.name for op in ops if op.failed}
        for op in ops:
            if op.failed or op.part_of in failed:
                continue
            if (op.rate_key == key) if key else op.in_total:
                seconds.setdefault(op.name, []).append(op.seconds)
                items[op.name] = op.items
    total = sum(statistics.median(v) for v in seconds.values())
    return sum(items.values()) / total if total > 0 else 0.0


def _setup_seconds(workload: str, seed: int, size: str, workdir: Path) -> float:
    samples = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size, str(workdir / f"probe{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _traced_pass(workload, seed, size, workdir, run_id, **pass_kwargs):
    """Set-up plus one pass with every meshcoord name wrapped; returns (tracer, wall, ops)."""
    import tracer
    import workloads

    tr = tracer.Tracer(run_id)
    with tr:
        t0 = time.perf_counter()
        inputs = workloads.SETUP[workload](seed, size, workdir)
        ops = workloads.PASS[workload](inputs, **pass_kwargs)
        wall = time.perf_counter() - t0
    return tr, wall, ops


def _trace_metrics(workload, seed, size, workdir, out_root, passes, untraced_wall, tally) -> dict:
    import workloads

    run_id = f"{workload}:{seed}"
    traced, wall, ops = _traced_pass(workload, seed, size, workdir / "traced", run_id)
    tally.add(ops)
    overhead = wall / untraced_wall - 1.0
    pooled = traced.rollup(wall)
    breakdown, roll, workers = traced, pooled, 1
    if workload == "mission-sweep":
        # spans inside pool workers never reach this process, so the layer
        # breakdown comes from a second, serial traced pass
        workers = workloads.MISSION_WORKERS
        breakdown, wall, ops = _traced_pass(workload, seed, size, workdir / "serial", run_id + ":serial", workers=1)
        tally.add(ops)
        roll = breakdown.rollup(wall)
    breakdown.write(out_root / f"spans-{workload}.csv.gz")

    m: dict[str, float] = {key: _rate(passes, key) for key in RATES}
    m["fail_frac"] = tally.failed / tally.attempted
    m["check.golden_digests"] = tally.golden_checked
    for name, spans in SELF_TIMES.items():
        m[name] = sum((roll["self"].get(s, 0.0) for s in spans), 0.0)
    m["scenario.run_mission_s"] = roll["inclusive"].get("scenario.run_mission", 0.0)
    for name, span in CALLS.items():
        m[name] = roll["calls"].get(span, 0)
    for name in COUNTS:
        m[name] = breakdown.counts.get(name, 0)
    m["cli.pools_started"] = traced.counts.get("cli.pools_started", 0)
    pooled_mc_s = pooled["inclusive"].get("scenario.monte_carlo", 0.0)
    serial_mc_s = roll["inclusive"].get("scenario.monte_carlo", 0.0)
    m["cli.monte_carlo_s"] = pooled_mc_s
    m["cli.parallel_efficiency"] = serial_mc_s / (workers * pooled_mc_s) if pooled_mc_s else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in roll["self"].items() if k.startswith(layer + ".")), 0.0)
    m["trace.unattributed_s"] = roll["unattributed_s"]
    m["trace.wall_s"] = roll["wall_s"]
    m["trace.overhead_frac"] = overhead
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        out_root: Path = ROOT / ".bench_out") -> dict:
    """One benchmark run in this process; returns the result object."""
    import workloads

    golden = json.loads((HERE / "golden.json").read_text()) if size == "full" else {}
    tally = Tally(golden.get(workload, {}).get(str(seed)))
    out_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_root))
    try:
        setup_s = None if trace else _setup_seconds(workload, seed, size, workdir)
        t0 = time.perf_counter()
        inputs = workloads.SETUP[workload](seed, size, workdir / "untraced")
        setup_inproc = time.perf_counter() - t0

        passes = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            ops = workloads.PASS[workload](inputs)
            passes.append((time.perf_counter() - t, ops))
            tally.add(ops)
            typical = statistics.median(w for w, _ in passes)
            if time.perf_counter() - start + typical > seconds:
                break

        if not trace:
            metrics = {
                "setup_s": setup_s,
                "items_per_s": _rate(passes),
                "peak_rss_mb": _peak_rss_mb(),
            }
            units = END_TO_END
        else:
            untraced_wall = setup_inproc + statistics.median(w for w, _ in passes)
            metrics = _trace_metrics(workload, seed, size, workdir, out_root, passes, untraced_wall, tally)
            units = per_layer_units()
        return {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            "errors": tally.errors,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mission-sweep", "scale-rules", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "meshcoord" / "__init__.py").is_file():
        print(f"error: no meshcoord sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, error in result.pop("errors").items():
        print(f"failed op {name}: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
