"""Wall time and peak RSS of one large mission sweep, in two checkouts.

The sweep is 45 agents in an 800 x 800 world (fov 5 x 5, move_magnitude 3,
comm_range 50, 8 steps): the five rules at k = 2 and k = 4, two trials each,
run serially by `monte_carlo`. Each run is a fresh interpreter that imports
the checkout's src/, so its peak RSS is that of the sweep alone.

Usage (from the repository root; PARENT is a checkout of the commit to
compare against, for example made with `git archive`):

    python3 tools/bench_large_sweep.py --before PARENT --after . --out BENCH_name.json

PAIRS interleaved pairs of runs, alternating which checkout goes first. The
medians of wall time and peak RSS are recorded per checkout, next to every
run's values, as a "large_sweep" entry added to the JSON file at --out (made
by tools/bench_pairs.py, or created). Runs whose traces differ between the
checkouts make the script exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SWEEP = dict(
    n_agents=45, world_width=800, world_height=800, fov_width=5, fov_height=5,
    move_magnitude=3, comm_range=50.0, steps=8, trials=2,
)
ALGORITHMS = ("rag", "sg", "dfs-sg", "dsm", "random")
KS = (2, 4)

RUN = r"""
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from meshcoord.scenario import MissionConfig, monte_carlo
sweep, algorithms, ks = json.loads(sys.argv[2])
variations = [MissionConfig(**sweep, algorithm=a, k=k) for a in algorithms for k in ks]
t0 = time.perf_counter()
traces, _ = monte_carlo(variations, workers=1)
wall = time.perf_counter() - t0
print(json.dumps({
    "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "traces_sha256": hashlib.sha256(repr(traces).encode()).hexdigest()[:16],
}))
"""


def run(root: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(Path(root).resolve()), json.dumps([SWEEP, ALGORITHMS, KS])],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="root of the checkout to compare against")
    ap.add_argument("--after", required=True, help="root of the changed checkout")
    ap.add_argument("--out", required=True, help="BENCH JSON file to add the entry to")
    args = ap.parse_args()
    sides = [("before", args.before), ("after", args.after)]
    runs = {"before": [], "after": []}
    for pair in range(PAIRS):
        for side, root in sides if pair % 2 == 0 else sides[::-1]:
            runs[side].append(run(root))
            print(pair, side, runs[side][-1], file=sys.stderr)
    entry = {
        "sweep": dict(SWEEP, algorithms=ALGORITHMS, ks=KS, workers=1),
        "pairs": PAIRS,
    }
    for side in runs:
        entry[side] = {
            "median": {
                name: statistics.median(r[name] for r in runs[side]) for name in ("wall_s", "peak_rss_mb")
            },
            "runs": runs[side],
        }
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench["large_sweep"] = entry
    out.write_text(json.dumps(bench, indent=2) + "\n")
    digests = {r["traces_sha256"] for side in runs for r in runs[side]}
    if len(digests) != 1:
        print(f"the checkouts' traces differ: {sorted(digests)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
