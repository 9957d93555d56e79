"""Wall time of curvature and coin_sum at scale, for two checkouts, on a ladder of team sizes.

Usage (from the repository root; PARENT is a checkout of the commit to
compare against, for example made with `git archive`):

    python3 tools/bench_bound_layer.py --before PARENT --after . --out BENCH_name.json

For each n in LADDER, each run builds scaling_instance(Random(1), n), runs
rag on knn_graph(positions, 4, 12.0), then times curvature(obj) and
coin_sum(obj, g, actions), in a fresh interpreter per run, REPEATS runs per
checkout and n in alternating order. Medians are recorded next to every run.
A run that takes longer than LIMIT seconds, set-up included, is recorded as
not finished, and that checkout is not run at the larger sizes.

Both checkouts must return repr-equal kappa and coin sums and charge equal
evaluations, or the script exits 1. The ladder is written to --out under
"scale_ladder", next to whatever the file already holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LADDER = (300, 1_000, 10_000)
REPEATS = 5
LIMIT = 60.0
TIMES = ("curvature_s", "coin_sum_s", "total_s")

MEASURE = r"""
import json, random, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from meshcoord.bounds import coin_sum
from meshcoord.coordination import run_rag
from meshcoord.instances import scaling_instance
from meshcoord.objective import curvature
from meshcoord.topology import knn_graph
obj, positions = scaling_instance(random.Random(1), int(sys.argv[2]))
g = knn_graph(positions, 4, 12.0)
out = run_rag(obj, g)
before = obj.eval_count
t0 = time.perf_counter()
kappa = curvature(obj)
t1 = time.perf_counter()
coins = coin_sum(obj, g, out.actions)
t2 = time.perf_counter()
print(json.dumps({
    "curvature_s": t1 - t0, "coin_sum_s": t2 - t1, "total_s": t2 - t0,
    "kappa": repr(kappa), "coin_sum": repr(coins), "charged": obj.eval_count - before,
}))
"""


def measure(root: str, n: int) -> dict | None:
    """One run's record, or None when it did not finish within LIMIT seconds."""
    try:
        done = subprocess.run(
            [sys.executable, "-c", MEASURE, str(Path(root).resolve()), str(n)],
            check=True, capture_output=True, text=True, timeout=LIMIT,
        )
    except subprocess.TimeoutExpired:
        return None
    return json.loads(done.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="root of the checkout to compare against")
    ap.add_argument("--after", required=True, help="root of the changed checkout")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sides = [("before", args.before), ("after", args.after)]
    running = {side for side, _ in sides}
    problems = []
    ladder = []
    for n in LADDER:
        runs: dict[str, list[dict]] = {side: [] for side, _ in sides if side in running}
        for rep in range(REPEATS):
            for side, root in sides if rep % 2 == 0 else sides[::-1]:
                if side not in running:
                    continue
                rec = measure(root, n)
                print(n, rep, side, rec, file=sys.stderr)
                if rec is None:
                    running.discard(side)
                else:
                    runs[side].append(rec)
        entry: dict = {"n": n}
        for side, recs in runs.items():
            entry[side] = {
                "median": {name: statistics.median(r[name] for r in recs) for name in TIMES},
                "runs": recs,
            } if side in running else f"a run took longer than {LIMIT:g} s; not run at this or larger n"
        answers = {(r["kappa"], r["coin_sum"], r["charged"]) for recs in runs.values() for r in recs}
        if len(answers) > 1:
            problems.append(f"n = {n}: kappa, coin sum or charged evaluations differ: {sorted(answers)}")
        ladder.append(entry)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["scale_ladder"] = {
        "what": __doc__.splitlines()[0],
        "instance": "scaling_instance(Random(1), n); rag on knn_graph(positions, 4, 12.0)",
        "repeats": REPEATS,
        "limit_s": LIMIT,
        "sizes": ladder,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
