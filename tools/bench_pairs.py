"""End-to-end benchmark metrics of two checkouts, in interleaved pairs of runs.

The paired-run tool for performance changes: it measures a change against
its parent the way the benchmark's paired rule judges it, and writes the
BENCH file that records the comparison.

Usage (from the repository root; PARENT is a checkout of the commit to
compare against, for example made with `git archive`):

    python3 tools/bench_pairs.py --before PARENT --after . --out BENCH_name.json

For each workload, PAIRS pairs (or --pairs, at least 2) of `bench/run.py --trace 0` runs
at seed SEED (or --seed, to measure on a seed not used while writing the change),
one per checkout, each run from its own checkout so that it measures that
checkout's src/ and lasting the benchmark's fixed run length (`run_seconds`
in BENCHMARK.json). Which checkout goes first alternates from one pair to
the next. The medians and quartiles of items_per_s, setup_s and peak_rss_mb
are recorded per checkout, next to every run's values, with the number of
pairs the changed checkout's items_per_s and setup_s won.

It also runs each scale-rules rule operation once per checkout, in a fresh
interpreter, and records the evaluations it charged (the objective's
eval_count delta), likewise what run_rag plus bound_report charge on
each report of the certify corpus, and what coin charges for each agent of
that rag outcome, with an empty neighbourhood. A run that is not correct, has a failed
operation, or charges other evaluations than the other checkout makes the
script exit 1.
Next to the machine it records each checkout's src/meshcoord line count,
total and per module, and under "net" the change's net line count (after
minus before, total and per module), so a design change's net count is kept
with its pairs.
With --key, the comparison is written to --out under that key, next to
whatever the file already holds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SEED = 0
SECONDS = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("mission-sweep", "scale-rules", "certify")
METRICS = ("items_per_s", "setup_s", "peak_rss_mb")

EVAL_COUNTS = r"""
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import workloads
from meshcoord import bounds, coordination, objective
seed = int(sys.argv[2])

def charged(obj, call):
    before = obj.eval_count
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return obj.eval_count - before

inputs = workloads.setup_scale(seed, "full")
counts = {name: charged(inputs["obj"], call) for name, _, _, call in workloads._rule_ops(inputs)}
reports, coins = [], []
for obj, g in workloads.setup_certify(seed, "full")["corpus"]:
    before = obj.eval_count
    try:
        out = coordination.run_rag(obj, g)
        bounds.bound_report(obj, g, out)
    except Exception as exc:
        reports.append(type(exc).__name__)
        coins.append(None)
        continue
    reports.append(obj.eval_count - before)
    # coin with an empty neighbourhood, for each agent of the rag outcome
    coins.append([charged(obj, lambda: objective.coin(obj, j, out.actions, set())) for j in range(obj.n_agents)])
print(json.dumps({"scale-rules": counts, "certify-reports": reports, "certify-coins": coins}))
"""


def bench_run(root: str, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    rec = {"correct": result["correct"], "failed": result["failed"]}
    rec.update({name: result["metrics"][name]["value"] for name in METRICS})
    return rec


def eval_counts(root: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", EVAL_COUNTS, str(Path(root).resolve()), str(seed)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def source_lines(root: str) -> dict:
    modules = {p.name: len(p.read_text().splitlines()) for p in sorted(Path(root, "src", "meshcoord").glob("*.py"))}
    return {"total": sum(modules.values()), "modules": modules}


def net_lines(before: dict, after: dict) -> dict:
    """after minus before, total and per module; a module only one side has counts 0 on the other."""
    names = sorted(before["modules"].keys() | after["modules"].keys())
    modules = {name: after["modules"].get(name, 0) - before["modules"].get(name, 0) for name in names}
    return {"total": after["total"] - before["total"], "modules": modules}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="root of the checkout to compare against")
    ap.add_argument("--after", required=True, help="root of the changed checkout")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=SEED, help=f"seed of every run (default {SEED})")
    ap.add_argument("--pairs", type=int, default=PAIRS, help=f"pairs of runs per workload (default {PAIRS})")
    ap.add_argument("--key", help="write under this key of --out, keeping the rest of the file")
    args = ap.parse_args()
    if args.pairs < 2:  # the quartiles need two runs a side
        ap.error(f"--pairs must be at least 2, got {args.pairs}")
    sides = [("before", args.before), ("after", args.after)]
    problems = []
    results = []
    for workload in WORKLOADS:
        runs = {"before": [], "after": []}
        for pair in range(args.pairs):
            for side, root in sides if pair % 2 == 0 else sides[::-1]:
                rec = bench_run(root, workload, args.seed)
                runs[side].append(rec)
                print(workload, pair, side, rec, file=sys.stderr)
                if rec["correct"] is not True or rec["failed"]:
                    problems.append(f"{workload} {side} pair {pair}: {rec}")
        entry = {"workload": workload}
        for side in runs:
            entry[side] = {
                "median": {name: statistics.median(r[name] for r in runs[side]) for name in METRICS},
                "quartiles": {name: statistics.quantiles([r[name] for r in runs[side]]) for name in METRICS},
                "runs": runs[side],
            }
        entry["items_per_s_ratio"] = entry["after"]["median"]["items_per_s"] / entry["before"]["median"]["items_per_s"]
        entry["items_per_s_pairs_won"] = sum(
            a["items_per_s"] > b["items_per_s"] for a, b in zip(runs["after"], runs["before"])
        )
        entry["setup_s_pairs_won"] = sum(a["setup_s"] < b["setup_s"] for a, b in zip(runs["after"], runs["before"]))
        results.append(entry)
    charged = {side: eval_counts(root, args.seed) for side, root in sides}
    for part in ("scale-rules", "certify-reports", "certify-coins"):
        if charged["before"][part] != charged["after"][part]:
            problems.append(f"{part} charged evaluations differ: {charged}")
    lines = {side: source_lines(root) for side, root in sides}
    lines["net"] = net_lines(lines["before"], lines["after"])
    doc = {
        "what": __doc__.splitlines()[0],
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            # verify's default worker count when MESHCOORD_WORKERS is unset
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            # the pools' default start method: fork on Linux before Python 3.14, forkserver from 3.14
            "start_method": multiprocessing.get_start_method(),
            "platform": platform.platform(),
        },
        "source_lines": lines,
        "seed": args.seed,
        "seconds_per_run": SECONDS,
        "pairs": args.pairs,
        "results": results,
        "scale_rules_charged_evaluations": {side: c["scale-rules"] for side, c in charged.items()},
        "certify_reports_charged_evaluations": {side: c["certify-reports"] for side, c in charged.items()},
        "certify_coins_charged_evaluations": {side: c["certify-coins"] for side, c in charged.items()},
    }
    out = Path(args.out)
    if args.key:
        doc = {**(json.loads(out.read_text()) if out.exists() else {}), args.key: doc}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
