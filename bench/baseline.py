"""Runs the benchmark over several seeds and records medians, quartiles and spreads.

Usage (from the repository root):

    python3 bench/baseline.py [--out bench/baseline.json]

For each workload it makes one untraced run per seed 1-10 (seconds from
BENCHMARK.json), then one traced run on seed 1. It prints, per
end-to-end metric, the median, the quartiles and the spread (distance between
the quartiles as a share of the median, as statistics.quantiles gives them).
With --out it writes those numbers, the traced run's per-layer metrics and a
machine stamp as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result, with the failed-op lines it printed on stderr under "failures"."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["failures"] = [ln for ln in proc.stderr.splitlines() if ln.startswith("failed op ")]
    return result


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, s, spec["run_seconds"], 0) for s in SEEDS]
        entry = {
            "seeds": SEEDS,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "failures": sorted({line for r in runs for line in r["failures"]}),
            "end_to_end": {},
        }
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- above a third of its bound"
            print(f"{workload:14s} {name:12s} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
            print("    values " + " ".join(f"{v:.5g}" for v in s["values"]))
        print(f"{workload:14s} attempted {entry['attempted']} failed {entry['failed']} correct {entry['correct']}")
        for line in entry["failures"]:
            print(f"    {line}")
        traced = _run(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        sys.stdout.flush()

    if args.out:
        record["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu_model": _cpu_model(),
            "commit": _commit(),
            "run_seconds": spec["run_seconds"],
        }
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
