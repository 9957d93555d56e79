"""Rule wall time and peak memory at n = 1,000 to 10,000, for two source trees.

Usage (from the repository root; PARENT is a checkout of the commit to
compare against, for example made with `git archive`):

    python3 tools/bench_windowed_masks.py --before PARENT/src --after src \\
        --out BENCH_windowed_masks.json

Each (rule, n, tree) runs in its own fresh interpreter, so that its peak RSS
is that of one whole run: import, scaling_instance(random.Random(1), n), and
the rule repeated REPEATS times. rag runs on knn_graph(positions, 4, 12.0)
and sg on an order shuffled by random.Random(2), as in the benchmark's
scale-rules workload. The two trees alternate, and which one goes first
alternates from one (rule, n) to the next. A tree's outcome, value and
evaluate-call count must equal the other's, or the script exits 1.

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

REPEATS = 5
CASES = [("rag", 1000), ("rag", 3000), ("rag", 10000), ("sg", 1000), ("sg", 3000)]

CHILD = r"""
import json, random, resource, sys, time
sys.path.insert(0, sys.argv[1])
from meshcoord.coordination import run_rag, run_sg
from meshcoord.instances import scaling_instance
from meshcoord.topology import knn_graph

rule, n, repeats = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
t0 = time.perf_counter()
obj, positions = scaling_instance(random.Random(1), n)
setup_s = time.perf_counter() - t0
if rule == "rag":
    g = knn_graph(positions, 4, 12.0)
    call = lambda: run_rag(obj, g)
else:
    order = list(range(n))
    random.Random(2).shuffle(order)
    call = lambda: run_sg(obj, order)
seconds, outcomes, evals = [], set(), set()
for _ in range(repeats):
    obj.eval_count = 0
    t0 = time.perf_counter()
    out = call()
    seconds.append(time.perf_counter() - t0)
    evals.add(obj.eval_count)
    outcomes.add(hash(out))
print(json.dumps({
    "setup_s": setup_s,
    "seconds": seconds,
    "evaluate_calls": sorted(evals),
    "value": out.value,
    "outcome_hash": sorted(outcomes),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run(src: str, rule: str, n: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, src, rule, str(n), str(REPEATS)],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    rec = json.loads(done.stdout)
    rec["median_s"] = statistics.median(rec["seconds"])
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the tree to compare against")
    ap.add_argument("--after", required=True, help="src directory of the changed tree")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    results, mismatched = [], []
    for k, (rule, n) in enumerate(CASES):
        sides = [("before", args.before), ("after", args.after)]
        rec = {"rule": rule, "n": n}
        for side, src in sides if k % 2 == 0 else sides[::-1]:
            rec[side] = run(src, rule, n)
            print(rule, n, side, round(rec[side]["median_s"], 3), "s",
                  round(rec[side]["peak_rss_mb"]), "MB", file=sys.stderr)
        same = ("evaluate_calls", "value", "outcome_hash")
        if any(rec["before"][key] != rec["after"][key] for key in same):
            mismatched.append(f"{rule} at n = {n}")
        rec["speedup"] = rec["before"]["median_s"] / rec["after"]["median_s"]
        results.append(rec)
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
    }, indent=2) + "\n")
    if mismatched:
        print("outcomes differ for", ", ".join(mismatched), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
