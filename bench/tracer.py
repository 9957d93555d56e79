"""In-memory span tracer that wraps meshcoord's functions from outside the package.

``Tracer.install`` replaces every public function of the eight meshcoord
modules (plus ``Objective.evaluate``, the coverage objectives' constructors
and ``cli._write_csv``) with a wrapper that records one span per call: name,
start, end and parent span. A function imported into another module is
replaced there too, because callers look it up in their own namespace.
``Tracer.restore`` puts every original back, so untraced runs execute the
unpatched code.

Spans are kept in flat arrays while the pass runs and written out once, after
it ends. A span's self time is its duration minus the durations of its
children; the self times of all spans, plus the time outside any top-level
span, add up to the traced wall time.
"""

from __future__ import annotations

import array
import functools
import gzip
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import meshcoord
from meshcoord import bounds, cli, coordination, instances, objective, scenario, timing, topology

MODULES = {
    "objective": objective,
    "topology": topology,
    "coordination": coordination,
    "timing": timing,
    "scenario": scenario,
    "instances": instances,
    "bounds": bounds,
    "cli": cli,
}
MARK = "_bench_span"


def _selection_size(counts: Counter, args: tuple, kwargs: dict) -> tuple:
    selection = args[1]
    if not hasattr(selection, "__len__"):
        selection = tuple(selection)
        args = (args[0], selection) + args[2:]
    counts["objective.selection_elems"] += len(selection)
    return args


def _pool_start(counts: Counter, args: tuple, kwargs: dict) -> tuple:
    workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    if workers > 1:
        counts["cli.pools_started"] += 1
    return args


def _rag_rounds(counts: Counter, outcome) -> None:
    counts["coordination.rag_iterations"] += len(outcome.events)
    counts["coordination.rag_recomputes"] += sum(len(ev.recomputed) for ev in outcome.events)


def _mission_steps(counts: Counter, trace) -> None:
    counts["scenario.steps"] += len(trace.records)


class Tracer:
    """Records spans for one traced pass; all its spans share run_id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, before=None, after=None):
        sid = self._name_ids.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        counts = self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(counts, args, kwargs)
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        setattr(wrapper, MARK, span)
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        hooks = {
            "scenario.monte_carlo": (_pool_start, None),
            "coordination.run_rag": (None, _rag_rounds),
            "scenario.run_mission": (None, _mission_steps),
        }
        wrappers = {}
        for short, mod in MODULES.items():
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    span = f"{short}.{attr}"
                    wrappers[value] = self._wrap(span, value, *hooks.get(span, (None, None)))
        wrappers[cli._write_csv] = self._wrap("cli.write_csv", cli._write_csv)
        for mod in (meshcoord, *MODULES.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        evaluate = objective.Objective.evaluate
        self._patch(
            objective.Objective,
            "evaluate",
            self._wrap("objective.evaluate", evaluate, _selection_size),
        )
        for cls in (objective.GridCoverageObjective, objective.DiskCoverageObjective):
            self._patch(cls, "__init__", self._wrap("objective.build", cls.__init__))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def rollup(self, wall_s: float) -> dict:
        """Per-span-name calls, inclusive and self seconds, plus the unattributed rest."""
        n = len(self.start)
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += d
            else:
                top += d
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            inclusive[name] += d
            self_s[name] += d - child[i]
        return {
            "calls": calls,
            "inclusive": inclusive,
            "self": self_s,
            "wall_s": wall_s,
            "unattributed_s": wall_s - top,
        }

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV rows: run_id, span, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id,span,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.run_id},{i},{self.names[self.name[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n"
                )


def wrapped_attributes() -> list[str]:
    """Every meshcoord attribute still holding a tracer wrapper (empty after restore)."""
    found = []
    for mod in (meshcoord, *MODULES.values()):
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("meshcoord"):
                found += [
                    f"{mod.__name__}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, MARK)
                ]
    return found
