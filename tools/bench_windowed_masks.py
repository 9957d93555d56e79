"""Set-up and rule wall time and peak memory at n = 1,000 to 30,000, for two source trees.

Usage (from the repository root; PARENT is a checkout of the commit to
compare against, for example made with `git archive`):

    python3 tools/bench_windowed_masks.py --before PARENT/src --after src \\
        --out BENCH_windowed_setup.json

Each (rule, n) is measured REPEATS times per tree, each time in a fresh
interpreter, so that a sample's peak RSS is that of one whole run: import,
scaling_instance(random.Random(1), n), timed as set-up (wall and process CPU
time), and one run of the rule, timed on its own. rag runs on knn_graph(positions, 4, 12.0) and sg on
an order shuffled by random.Random(2), as in the benchmark's scale-rules
workload. The two trees alternate within each repeat, and which one goes
first alternates from one repeat to the next. A tree's built instance (road,
masks, counts, positions and the generator's state afterwards, as one
digest), outcome, value and evaluate-call count must equal the other's, or
the script exits 1.

sg at n = 10,000 is left out: its full_access_dag alone holds about 2.3 GB
of predecessor sets, whatever the mask representation.
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

REPEATS = 7
CASES = [("rag", 1000), ("rag", 3000), ("rag", 10000), ("rag", 30000), ("sg", 1000), ("sg", 3000)]

CHILD = r"""
import hashlib, json, pickle, random, resource, sys, time
sys.path.insert(0, sys.argv[1])
from meshcoord.coordination import run_rag, run_sg
from meshcoord.instances import scaling_instance
from meshcoord.topology import knn_graph

rule, n = sys.argv[2], int(sys.argv[3])
rng = random.Random(1)
t0, c0 = time.perf_counter(), time.process_time()
obj, positions = scaling_instance(rng, n)
setup_s, setup_cpu_s = time.perf_counter() - t0, time.process_time() - c0
if rule == "rag":
    g = knn_graph(positions, 4, 12.0)
    call = lambda: run_rag(obj, g)
else:
    order = list(range(n))
    random.Random(2).shuffle(order)
    call = lambda: run_sg(obj, order)
t0 = time.perf_counter()
out = call()
seconds = time.perf_counter() - t0
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
built = hashlib.sha256(pickle.dumps(
    (obj.road_mask, obj.road_cell_count, obj.action_counts, obj._counts, positions, rng.getstate())
))
for menu in obj._masks:  # one menu at a time, so the digest adds little memory
    built.update(pickle.dumps(menu))
print(json.dumps({
    "setup_s": setup_s,
    "setup_cpu_s": setup_cpu_s,
    "seconds": seconds,
    "evaluate_calls": obj.eval_count,
    "value": out.value,
    "outcome_hash": hash(out),
    "built_digest": built.hexdigest(),
    "peak_rss_mb": peak_rss_mb,
}))
"""
SAME = ("built_digest", "evaluate_calls", "value", "outcome_hash")


def run(src: str, rule: str, n: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, src, rule, str(n)],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    return json.loads(done.stdout)


def summary(samples: list[dict]) -> dict:
    """The medians of a tree's samples, the samples themselves, and the values every sample must share."""
    rec = {key: sorted({s[key] for s in samples}) for key in SAME}
    for key in ("setup_s", "setup_cpu_s", "seconds", "peak_rss_mb"):
        rec[key] = [s[key] for s in samples]
        rec[f"median_{key}"] = statistics.median(rec[key])
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the tree to compare against")
    ap.add_argument("--after", required=True, help="src directory of the changed tree")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    results, mismatched = [], []
    sides = [("before", args.before), ("after", args.after)]
    for rule, n in CASES:
        samples = {"before": [], "after": []}
        for repeat in range(REPEATS):
            for side, src in sides if repeat % 2 == 0 else sides[::-1]:
                sample = run(src, rule, n)
                samples[side].append(sample)
                print(rule, n, side, round(sample["setup_s"], 3), "s set-up", round(sample["seconds"], 3), "s rule",
                      round(sample["peak_rss_mb"]), "MB", file=sys.stderr)
        rec = {"rule": rule, "n": n, "before": summary(samples["before"]), "after": summary(samples["after"])}
        # every sample of both trees built the same instance and reached the same outcome
        before, after = rec["before"], rec["after"]
        rec["same_outputs"] = all(len(before[key]) == 1 and before[key] == after[key] for key in SAME)
        if not rec["same_outputs"]:
            mismatched.append(f"{rule} at n = {n}")
        rec["setup_speedup"] = rec["before"]["median_setup_s"] / rec["after"]["median_setup_s"]
        rec["rule_speedup"] = rec["before"]["median_seconds"] / rec["after"]["median_seconds"]
        results.append(rec)
    setup = {rec["n"]: rec for rec in results if rec["rule"] == "rag"}
    Path(args.out).write_text(json.dumps({
        "what": __doc__.splitlines()[0],
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "repeats": REPEATS,
        "left_out": "sg at n = 10,000: full_access_dag alone holds about 2.3 GB",
        "results": results,
        # how much longer set-up takes at n = 30,000 than at 10,000 (3 would be linear)
        "setup_growth_10k_to_30k": {
            side: setup[30000][side]["median_setup_s"] / setup[10000][side]["median_setup_s"]
            for side in ("before", "after")
        },
    }, indent=2) + "\n")
    if mismatched:
        print("outcomes differ for", ", ".join(mismatched), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
