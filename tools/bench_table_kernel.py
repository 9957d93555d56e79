"""Wall time of subset tables, bound reports and window splits, for two checkouts.

Usage (from the repository root; PARENT is a checkout of the commit to
compare against, for example made with `git archive`):

    python3 tools/bench_table_kernel.py --before PARENT --after . --out BENCH_name.json

Each run, in a fresh interpreter, times:
  - for each m in LADDER, on the first grid-coverage instance of m elements
    that random_coverage_instance(Random(f"ladder:{m}:{draw}"), max_agents=6,
    max_actions=4, min_agents=4) draws: subset_value_table over the ground
    set, and bound_report on the outcome of rag;
  - on the certify workload's corpus at seed 0 (40 instances, from
    bench/workloads.py): all 40 ground-set tables, and all 40 bound reports;
  - objective._split of a random int of 36 * n bits into windows, for each
    n in SPLIT_TEAMS.
REPEATS runs per checkout, in alternating order; medians are recorded next
to every run, with the evaluations each table and report charged.

Both checkouts must give equal tables, reports (by repr) and charges, or
the script exits 1. The results are written to --out under "m_ladder",
next to whatever the file already holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LADDER = (8, 12, 16)
SPLIT_TEAMS = (10_000, 30_000, 100_000)
REPEATS = 7

MEASURE = r"""
import hashlib, json, random, sys, time
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import workloads
from meshcoord import objective
from meshcoord.bounds import bound_report
from meshcoord.coordination import run_rag
from meshcoord.instances import random_coverage_instance

def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

def timed(obj, call):
    before = obj.eval_count
    t0 = time.perf_counter()
    result = call()
    return time.perf_counter() - t0, result, obj.eval_count - before

rec = {"ladder": {}, "split_s": {}}
for m in json.loads(sys.argv[2]):
    draw = 0
    while True:
        obj, g = random_coverage_instance(random.Random(f"ladder:{m}:{draw}"), max_agents=6, max_actions=4, min_agents=4)
        if len(obj.ground()) == m:
            break
        draw += 1
    out = run_rag(obj, g)
    table_s, table, table_charged = timed(obj, lambda: objective.subset_value_table(obj, obj.ground()))
    report_s, report, report_charged = timed(obj, lambda: bound_report(obj, g, out))
    rec["ladder"][m] = {
        "draw": draw, "table_s": table_s, "table_charged": table_charged, "table": digest(table),
        "report_s": report_s, "report_charged": report_charged, "report": digest(report),
    }
corpus = workloads.setup_certify(0, "full")["corpus"]
outcomes = [run_rag(obj, g) for obj, g in corpus]
t0 = time.perf_counter()
tables = [objective.subset_value_table(obj, obj.ground()) for obj, _ in corpus]
t1 = time.perf_counter()
reports = []
for (obj, g), out in zip(corpus, outcomes):
    before = obj.eval_count
    reports.append((bound_report(obj, g, out), obj.eval_count - before))
t2 = time.perf_counter()
rec["corpus"] = {"tables_s": t1 - t0, "reports_s": t2 - t1, "tables": digest(tables), "reports": digest(reports)}
for n in json.loads(sys.argv[3]):
    mask = random.Random(n).getrandbits(36 * n) | 1 << (36 * n - 1)
    t0 = time.perf_counter()
    windows = objective._split(mask, mask.bit_length())
    rec["split_s"][n] = time.perf_counter() - t0
    rec["split_" + str(n)] = digest(windows)
print(json.dumps(rec))
"""

TIMES = ("table_s", "report_s")
ANSWERS = ("table_charged", "table", "report_charged", "report")


def measure(root: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", MEASURE, str(Path(root).resolve()), json.dumps(LADDER), json.dumps(SPLIT_TEAMS)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="root of the checkout to compare against")
    ap.add_argument("--after", required=True, help="root of the changed checkout")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sides = [("before", args.before), ("after", args.after)]
    runs: dict[str, list[dict]] = {side: [] for side, _ in sides}
    for rep in range(REPEATS):
        for side, root in sides if rep % 2 == 0 else sides[::-1]:
            runs[side].append(measure(root))
            print(rep, side, file=sys.stderr)

    def median(side: str, pick) -> float:
        return statistics.median(pick(r) for r in runs[side])

    ladder = []
    for m in map(str, LADDER):
        entry: dict = {"m": int(m), "draw": runs["after"][0]["ladder"][m]["draw"]}
        for side in runs:
            entry[side] = {name: median(side, lambda r: r["ladder"][m][name]) for name in TIMES}
            entry[side]["runs"] = [{name: r["ladder"][m][name] for name in TIMES} for r in runs[side]]
        entry["charged"] = {name: runs["after"][0]["ladder"][m][name] for name in ("table_charged", "report_charged")}
        ladder.append(entry)
    corpus = {side: {name: median(side, lambda r: r["corpus"][name]) for name in ("tables_s", "reports_s")} for side in runs}
    split = {
        str(n): {side: median(side, lambda r: r["split_s"][str(n)]) for side in runs} for n in SPLIT_TEAMS
    }

    def answers(r: dict) -> tuple:
        return (
            tuple((m, tuple(r["ladder"][m][name] for name in ANSWERS)) for m in map(str, LADDER)),
            r["corpus"]["tables"], r["corpus"]["reports"],
            tuple(r["split_" + str(n)] for n in SPLIT_TEAMS),
        )

    distinct = {answers(r) for recs in runs.values() for r in recs}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["m_ladder"] = {
        "what": __doc__.splitlines()[0],
        "instance": 'random_coverage_instance(Random(f"ladder:{m}:{draw}"), max_agents=6, max_actions=4, min_agents=4)',
        "repeats": REPEATS,
        "sizes": ladder,
        "certify_corpus_seed_0": corpus,
        "split_36n_bits_s": split,
        "answers_equal": len(distinct) == 1,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    if len(distinct) > 1:
        print("tables, reports, charges or windows differ between runs or checkouts", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
