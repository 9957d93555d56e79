"""Records the golden output digests that every benchmark pass is checked against.

Usage (from the repository root, on a commit whose outputs are trusted):

    python3 bench/record_golden.py

Runs one full-size pass per workload and seed 0-31 and writes each op's
digest to bench/golden.json, replacing the whole table. A change that
legitimately alters simulated outputs (for example, different RNG draws in
strongly_connected_line_plus) re-records the digests as its own change.

dfs_order recurses once per agent, so the recorder raises the interpreter's
recursion limit: the dfs-sg digest is what the unchanged traversal returns
when it has the stack it needs, and a rewrite that keeps the same preorder
must reproduce it. The benchmark itself runs with the default limit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


SEEDS = range(32)


def main() -> int:
    sys.setrecursionlimit(20_000)
    golden: dict = {}
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        table = golden.setdefault(workload, {})
        for seed in SEEDS:
            workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=out_root))
            try:
                ops = workloads.PASS[workload](workloads.SETUP[workload](seed, "full", workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            bad = [f"{op.name}: {op.error}" for op in ops if op.error]
            if bad:
                print(f"cannot record {workload} seed {seed}: {'; '.join(bad)}", file=sys.stderr)
                return 1
            table[str(seed)] = {op.name: op.digest for op in ops if op.digest is not None}
            print(f"recorded {workload} seed {seed}", flush=True)

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    golden["recorded_on"] = commit.stdout.strip() or "unknown"
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
