"""The benchmark's three workloads, each aimed at a different layer of meshcoord.

A workload has a set-up step (input generation, reported as ``setup_s``) and a
pass (the timed body). A pass returns one ``Op`` per operation group it ran:
an op carries how many operations it stands for, how many work items it
completed, its wall time, a digest of its simulated outputs for the golden
gate, and any failure. Simulated outputs never contain wall-clock values, so
digests are comparable across runs and machines.

Workloads only call meshcoord's public API; they never change it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import random
import time
from fractions import Fraction
from pathlib import Path

from meshcoord import bounds, cli, coordination, instances, topology

WORKLOADS = ("mission-sweep", "scale-rules", "certify")

# Reference shapes; "tiny" exists for the benchmark's self-test only.
SIZES = {
    "full": {
        "mission": {
            "n_agents": 15, "world": 40, "road_density": 0.5, "steps": 16,
            "move_magnitude": 1, "comm_range": 50.0, "spawn": 4, "trials": 6,
            "algorithms": ("rag", "sg", "dfs-sg", "dsm", "random"), "ks": (0, 2, 7),
        },
        "scale_n": 1000,
        "verify_count": 800,
        "reports": 40,
    },
    "tiny": {
        "mission": {
            "n_agents": 4, "world": 12, "road_density": 0.5, "steps": 2,
            "move_magnitude": 1, "comm_range": 50.0, "spawn": 4, "trials": 1,
            "algorithms": ("rag", "sg", "dfs-sg", "dsm", "random"), "ks": (0, 2),
        },
        "scale_n": 40,
        "verify_count": 3,
        "reports": 2,
    },
}

SCALE_COMM_RANGE = 12.0
MISSION_WORKERS = 2
MISSION_ARTIFACTS = ("traces.csv", "aggregates.csv", "bounds.csv", "timings.csv", "summary.json")
CERTIFY_GENERATOR = {"max_agents": 5, "max_actions": 3, "min_agents": 4}


@dataclasses.dataclass
class Op:
    """One operation group of a pass.

    ops: operations it stands for (missions, one rule operation, verify
    property lines, one bound report). items: work items completed, in the
    unit of rate_key. wrong: an output failed a check, as opposed to a
    crash. in_total: whether items and seconds enter the end-to-end
    items_per_s. part_of: the op of the same pass whose checks cover this
    one's outputs; when that op fails, this one is left out of every rate.
    """

    name: str
    rate_key: str
    ops: int
    items: int
    seconds: float
    digest: object = None
    failed: int = 0
    error: str | None = None
    wrong: bool = False
    in_total: bool = True
    part_of: str | None = None


def canonical(value):
    """JSON-ready form of an output value with a stable order and exact floats."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, float):
        return float.hex(value)
    return value


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fail(op: Op, error: str, wrong: bool = False) -> Op:
    op.failed = op.ops
    op.error = op.error or error
    op.wrong = op.wrong or wrong
    return op


# --- mission-sweep ---------------------------------------------------------

def mission_config_text(seed: int, size: str, out_dir: Path) -> str:
    m = SIZES[size]["mission"]
    lines = {
        "n_agents": m["n_agents"],
        "world_width": m["world"],
        "world_height": m["world"],
        "road_density": m["road_density"],
        "steps": m["steps"],
        "move_magnitude": m["move_magnitude"],
        "comm_range": m["comm_range"],
        "spawn_width": m["spawn"],
        "spawn_height": m["spawn"],
        "trials": m["trials"],
        "seed": seed,
        "sweep_algorithm": " ".join(m["algorithms"]),
        "sweep_k": " ".join(str(k) for k in m["ks"]),
        "emit": "traces aggregates bounds timings",
        "output_dir": out_dir,
    }
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def setup_mission(seed: int, size: str, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "experiment.cfg"
    path.write_text(mission_config_text(seed, size, workdir / "out"))
    m = SIZES[size]["mission"]
    variations = len(m["algorithms"]) * len(m["ks"])
    return {
        "config": path,
        "out": workdir / "out",
        "variations": variations,
        "trials": m["trials"],
        "missions": variations * m["trials"],
        "trace_rows": variations * m["trials"] * m["steps"],
    }


def mission_digests(out: Path) -> dict:
    found = {}
    for name in MISSION_ARTIFACTS:
        data = (out / name).read_bytes()
        if name == "summary.json":
            # the summary echoes output_dir, which differs between checkouts
            summary = json.loads(data)
            summary["config"].pop("output_dir")
            data = json.dumps(summary, sort_keys=True).encode()
        found[name] = hashlib.sha256(data).hexdigest()[:16]
    return found


class _LineClock(io.StringIO):
    """Captured stdout that notes the time each line was completed."""

    def __init__(self):
        super().__init__()
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self.times.extend([time.perf_counter()] * text.count("\n"))
        return super().write(text)


def pass_mission(inputs: dict, workers: int = MISSION_WORKERS) -> list[Op]:
    """One in-process `meshcoord run` of the whole sweep.

    The CLI prints a line as each variation finishes, so the line times split
    the sweep into one timing slot per variation plus the artifact write-out.
    Variation slots stand for no operations of their own: the "artifacts" op
    stands for every mission, because its digests cover all of their outputs,
    and a failed "artifacts" op takes the slots out of the rates.
    """
    m = inputs["variations"]
    art = Op("artifacts", "missions_per_s", ops=inputs["missions"], items=0, seconds=0.0)
    clock = _LineClock()
    saved = os.environ.get("MESHCOORD_WORKERS")
    os.environ["MESHCOORD_WORKERS"] = str(workers)
    try:
        with contextlib.redirect_stdout(clock):
            t0 = time.perf_counter()
            rc = cli.main(["run", str(inputs["config"])])
            t1 = time.perf_counter()
    except Exception as exc:  # a crash is a measured failure, not a benchmark error
        return [_fail(art, f"{type(exc).__name__}: {exc}")]
    finally:
        if saved is None:
            os.environ.pop("MESHCOORD_WORKERS", None)
        else:
            os.environ["MESHCOORD_WORKERS"] = saved
    if rc != 0:
        return [_fail(art, f"meshcoord run exited with {rc}")]
    if len(clock.times) != m:
        return [_fail(art, f"expected {m} variation lines, got {len(clock.times)}", wrong=True)]
    try:
        art.digest = mission_digests(inputs["out"])
        rows = (inputs["out"] / "traces.csv").read_text().count("\n") - 1
    except (OSError, ValueError, KeyError) as exc:
        return [_fail(art, f"unreadable artifact: {exc}")]
    if rows != inputs["trace_rows"]:
        return [_fail(art, f"traces.csv has {rows} rows, expected {inputs['trace_rows']}", wrong=True)]
    edges = [t0, *clock.times, t1]
    art.seconds = edges[-1] - edges[-2]
    slots = [
        Op(f"variation-{i}", "missions_per_s", ops=0, items=inputs["trials"],
           seconds=edges[i + 1] - edges[i], part_of=art.name)
        for i in range(m)
    ]
    return slots + [art]


# --- scale-rules -----------------------------------------------------------

def setup_scale(seed: int, size: str, workdir: Path | None = None) -> dict:
    n = SIZES[size]["scale_n"]
    rng = random.Random(f"bench:{seed}:scale")
    obj, positions = instances.scaling_instance(rng, n)
    order = list(range(n))
    rng.shuffle(order)
    return {
        "obj": obj,
        "positions": positions,
        "order": order,
        "line_seed": rng.randrange(2**32),
    }


def _check_outcome(obj, out) -> str | None:
    """Seed-independent checks on an outcome; None when they all hold."""
    n = obj.n_agents
    if len(out.actions) != n or any(e.agent != i for i, e in enumerate(out.actions)):
        return "not one action per agent"
    if float(obj.covered_cells(out.actions)) != out.value:
        return "outcome value disagrees with the covered cells of its actions"
    if out.algorithm in ("sg", "dfs-sg", "dsm") and list(out.eval_counts) != list(obj.action_counts):
        return "sequential rule charged other than |V_i| evaluations per agent"
    return None


def _rule_ops(inputs: dict):
    obj, pts, order = inputs["obj"], inputs["positions"], inputs["order"]
    n = obj.n_agents

    def rag(k):
        return lambda: coordination.run_rag(obj, topology.knn_graph(pts, k, SCALE_COMM_RANGE))

    def dfs_sg():
        mesh = topology.strongly_connected_line_plus(
            n, min(2 * n, n * (n - 1) // 2 - (n - 1)), seed=inputs["line_seed"]
        )
        # from agent 0 the depth-first walk follows the line: the deepest traversal
        return coordination.run_dfs_sg(obj, mesh, 0)

    def dsm():
        g = topology.knn_graph(pts, 3, SCALE_COMM_RANGE)
        seen: set[int] = set()
        access = []
        for agent in order:
            access.append(frozenset(seen & g.in_neighbors[agent]))
            seen.add(agent)
        return coordination.run_dsm(obj, topology.InfoDag(order=tuple(order), access=tuple(access)))

    # dfs-sg stays out of items_per_s: the recursive dfs_order raises
    # RecursionError at n = 1000, and fixing it must not read as an end-to-end
    # slowdown. Its rate is the per-layer dfs-sg_decisions_per_s.
    return [
        ("rag-k2", "rag_decisions_per_s", True, rag(2)),
        ("rag-k4", "rag_decisions_per_s", True, rag(4)),
        ("rag-k8", "rag_decisions_per_s", True, rag(8)),
        ("sg", "sg_decisions_per_s", True, lambda: coordination.run_sg(obj, order)),
        ("dfs-sg", "dfs-sg_decisions_per_s", False, dfs_sg),
        ("dsm", "dsm_decisions_per_s", True, dsm),
    ]


def pass_scale(inputs: dict) -> list[Op]:
    obj = inputs["obj"]
    ops = []
    for name, rate_key, in_total, call in _rule_ops(inputs):
        op = Op(name, rate_key, ops=1, items=obj.n_agents, seconds=0.0, in_total=in_total)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a crash is a measured failure, not a benchmark error
            op.seconds = time.perf_counter() - t0
            ops.append(_fail(op, f"{type(exc).__name__}: {exc}"[:200]))
            continue
        op.seconds = time.perf_counter() - t0
        op.digest = digest(out)
        problem = _check_outcome(obj, out)
        ops.append(_fail(op, problem, wrong=True) if problem else op)
    return ops


# --- certify ---------------------------------------------------------------

def size_profile(total: int) -> dict[int, int]:
    """How many of `total` certify instances have each ground-set size m.

    random_coverage_instance draws the agent count uniformly from
    [min_agents, max_agents] and each agent's menu size uniformly from
    [1, max_actions], and m is the sum of the menu sizes. The exact
    distribution of m is rounded to `total` instances by largest remainder.
    """
    lo, hi = CERTIFY_GENERATOR["min_agents"], CERTIFY_GENERATOR["max_agents"]
    actions = CERTIFY_GENERATOR["max_actions"]
    share: dict[int, Fraction] = {}
    for n in range(lo, hi + 1):
        for menus in itertools.product(range(1, actions + 1), repeat=n):
            m = sum(menus)
            share[m] = share.get(m, 0) + Fraction(total, (hi - lo + 1) * actions**n)
    counts = {m: int(v) for m, v in share.items()}
    short = total - sum(counts.values())
    for m in sorted(share, key=lambda m: share[m] - counts[m], reverse=True)[:short]:
        counts[m] += 1
    return {m: c for m, c in sorted(counts.items()) if c}


def setup_certify(seed: int, size: str, workdir: Path | None = None) -> dict:
    # A report costs about 2^m * m^3, so drawing the corpus to the generator's
    # own size profile, rather than taking free draws, keeps a pass's work the
    # same for every seed.
    need = size_profile(SIZES[size]["reports"])
    corpus = []
    draw = 0
    while need:
        obj, g = instances.random_coverage_instance(
            random.Random(f"bench:{seed}:certify:{draw}"), **CERTIFY_GENERATOR
        )
        draw += 1
        m = len(obj.ground())
        if m in need:
            corpus.append((obj, g))
            need[m] -= 1
            if not need[m]:
                del need[m]
    return {"seed": seed, "count": SIZES[size]["verify_count"], "corpus": corpus}


def _check_report(report) -> str | None:
    tol = 1e-9
    if not report.certified:
        return "report not certified by the brute-force oracle"
    if report.optimum_value < report.algorithm_value - tol:
        return "algorithm value above the brute-force optimum"
    if report.algorithm_value < max(report.apriori, report.aposteriori) - tol:
        return "algorithm value below a certified bound"
    return None


def pass_certify(inputs: dict) -> list[Op]:
    count = inputs["count"]
    op = Op("verify", "verify_instances_per_s", ops=0, items=count, seconds=0.0)
    buf = io.StringIO()
    rc = None
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = cli.main(["verify", "--count", str(count), "--seed", str(inputs["seed"])])
            op.seconds = time.perf_counter() - t0
    except Exception as exc:  # a crash is a measured failure, not a benchmark error
        op.error = f"{type(exc).__name__}: {exc}"
    lines = buf.getvalue().splitlines()
    verdicts = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    op.ops = max(1, len(verdicts))
    op.failed = sum(ln.startswith("FAIL ") for ln in verdicts)
    op.wrong = op.failed > 0
    op.digest = None if op.error else digest(lines)
    if op.error or (rc != 0 and not op.failed):
        _fail(op, op.error or f"meshcoord verify exited with {rc}")
    ops = [op]

    for i, (obj, g) in enumerate(inputs["corpus"]):
        rep = Op(f"report-{i}", "bound_reports_per_s", ops=1, items=1, seconds=0.0)
        t0 = time.perf_counter()
        try:
            outcome = coordination.run_rag(obj, g)
            report = bounds.bound_report(obj, g, outcome)
        except Exception as exc:  # a crash is a measured failure, not a benchmark error
            rep.seconds = time.perf_counter() - t0
            ops.append(_fail(rep, f"{type(exc).__name__}: {exc}"))
            continue
        rep.seconds = time.perf_counter() - t0
        rep.digest = digest(report)
        problem = _check_report(report)
        ops.append(_fail(rep, problem, wrong=True) if problem else rep)
    return ops


SETUP = {"mission-sweep": setup_mission, "scale-rules": setup_scale, "certify": setup_certify}
PASS = {"mission-sweep": pass_mission, "scale-rules": pass_scale, "certify": pass_certify}
