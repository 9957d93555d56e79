"""Config-driven experiment runner: `run`, `verify`, and `figures` subcommands.

Configs are flat `key = value` text files (blank lines and full-line `#`
comments ignored) whose keys are exactly the fields of MissionConfig and
ExperimentConfig; `meshcoord run --print-default-config` emits a commented
template. `verify` prints one PASS/FAIL line per property; a FAIL line names
where its first failing check was made, its value and the bound it broke.
Exit codes: 0 success, 1 property violation, 2 config or environment error,
including too many missions, an unwritable artifact and running out of memory.
The MESHCOORD_WORKERS environment variable sizes both worker pools, and
either starts at most one pool, of no more processes than it has tasks:
- `run` maps batches of the missions that draw the same world, which each
  batch builds once. Unset, it runs serially: one mission can hold a
  world-sized footprint cache, so missions run side by side only on request.
- `verify` maps contiguous runs of its instances, whose few agents need
  little memory. Unset, it uses every CPU this process may run on.
Any worker count prints and writes the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO, get_args, get_origin, get_type_hints

from meshcoord.bounds import approx_greedy_bound, bound_report, coin_sum
from meshcoord.coordination import (
    BRUTE_FORCE_LIMIT,
    run_dfs_sg,
    run_dsm,
    run_rag,
    run_sg,
)
from meshcoord.instances import (
    random_coverage_instance,
    reference_line_instance,
    reference_star_instance,
)
from meshcoord.objective import DiskCoverageObjective, coin, coin_ring_bound
from meshcoord.scenario import (
    ALGORITHMS,
    MissionConfig,
    TRACE_HEADER,
    _pool_map,
    _sweep_missions,
    monte_carlo,
    trace_rows,
)
from meshcoord.timing import DelayModel, _rag_eval_cap, decision_time, rag_time_bound
from meshcoord.topology import full_access_dag, strongly_connected_line_plus

EMIT_CHOICES = ("traces", "aggregates", "bounds", "timings")


class ConfigError(Exception):
    """Raised with a diagnostic when a config, verify's limits or an output path cannot be used.

    main prints the message and exits 2.
    """


@dataclass(frozen=True)
class ExperimentConfig:
    mission: MissionConfig
    sweep_algorithm: tuple[str, ...] = ()
    sweep_k: tuple[int, ...] = ()
    sweep_n_agents: tuple[int, ...] = ()
    sweep_data_rate_mbps: tuple[float, ...] = ()
    output_dir: str = "out"
    emit: frozenset[str] = frozenset({"traces", "aggregates"})

    def __post_init__(self) -> None:
        # the sweep product; an empty sweep list falls back to the mission's own
        # value, so it is never empty, and building each MissionConfig checks it
        m = self.mission
        missions = tuple(
            replace(m, algorithm=a, k=k, n_agents=n, data_rate_mbps=r)
            for a in self.sweep_algorithm or (m.algorithm,)
            for k in self.sweep_k or (m.k,)
            for n in self.sweep_n_agents or (m.n_agents,)
            for r in self.sweep_data_rate_mbps or (m.data_rate_mbps,)
        )
        _sweep_missions(missions)
        object.__setattr__(self, "_missions", missions)

    def missions(self) -> list[MissionConfig]:
        """One MissionConfig per sweep variation, the last sweep key varying fastest, built at construction."""
        return list(self._missions)


DEFAULT_CONFIG_TEMPLATE = """\
# meshcoord experiment config: flat `key = value` lines.
# Blank lines and lines starting with '#' are ignored. Every key is optional;
# omitted keys keep the defaults shown here.

# --- mission ---
# team size and world (cells); the road mask is regenerated per trial unless
# road_mask_path points at a '#'/'.' grid file (which then defines the world size)
n_agents = 6
world_width = 24
world_height = 24
road_density = 0.45
corridor_width = 2
road_mask_path =

# sensing footprint and motion: 8 cardinal moves at move_magnitude cells
fov_width = 3
fov_height = 3
move_magnitude = 2
steps = 8

# communication self-configuration (k nearest within comm_range cells)
comm_range = 10.0
k = 2

# coordination rule: rag | sg | dfs-sg | dsm | random
algorithm = rag

# delay model: tau_f per evaluation, tau_hash per scalar round, and the
# action-message size/rate that set tau_c
tau_f = 0.001
tau_hash = 0.000256
message_kib = 25.0
data_rate_mbps = 0.25

trials = 5
seed = 0

# spawn box (cells, centered); empty = whole world
spawn_width =
spawn_height =

# --- sweep (space- or comma-separated lists; empty = the single value above) ---
sweep_algorithm =
sweep_k =
sweep_n_agents =
sweep_data_rate_mbps =

# --- output ---
output_dir = out
# any subset of: traces aggregates bounds timings (summary.json is always written)
emit = traces aggregates
"""

_MISSION_TYPES = get_type_hints(MissionConfig)
# every config key with its annotation, which picks the value parser
_KEY_TYPES = {**get_type_hints(ExperimentConfig), **_MISSION_TYPES}
del _KEY_TYPES["mission"]
# the fields that take only named values, with the values each accepts
_CHOICES = {"algorithm": ALGORITHMS, "sweep_algorithm": ALGORITHMS, "emit": EMIT_CHOICES}
# verify's instance runs per worker: enough to even out instances of unequal cost
_CHUNKS_PER_WORKER = 4
# bounds.csv columns after the instance index and its team size
_BOUND_COLUMNS = (
    "algorithm_value", "optimum_value", "apriori", "aposteriori", "approx_greedy",
    "coin_sum", "kappa", "certified",
)


def _split_list(value: str) -> list[str]:
    return [tok for tok in value.replace(",", " ").split() if tok]


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parses a config; each key is a MissionConfig or ExperimentConfig field.

    A field's annotation sets its parser: int, float or str, or a tuple or
    frozenset of them given as a list. Optional and list fields may be left
    empty; unset fields keep the dataclass defaults.
    """
    values: dict = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"config line {lineno}: unknown field {key!r}")
        if key in set_on:
            raise ConfigError(
                f"config line {lineno}: field {key!r} is already set on line {set_on[key]}"
            )
        set_on[key] = lineno
        hint = _KEY_TYPES[key]
        args = get_args(hint)
        listed = get_origin(hint) in (tuple, frozenset)
        if not value:
            if listed or type(None) in args:
                continue  # keep the default
            raise ConfigError(f"config line {lineno}: field {key!r} needs a value")
        scalar = args[0] if args else hint
        try:
            parsed = [scalar(tok) for tok in _split_list(value)] if listed else scalar(value)
        except ValueError:
            kind = "an integer" if scalar is int else "a number"
            raise ConfigError(
                f"config line {lineno}: field {key!r} expects {kind}, got {value!r}"
            ) from None
        if key in _CHOICES:
            bad = [v for v in (parsed if listed else [parsed]) if v not in _CHOICES[key]]
            if bad:
                raise ConfigError(
                    f"config line {lineno}: {key} accepts {', '.join(_CHOICES[key])}, got {', '.join(bad)}"
                )
        values[key] = get_origin(hint)(parsed) if listed else parsed

    try:
        mission = MissionConfig(**{k: v for k, v in values.items() if k in _MISSION_TYPES})
        return ExperimentConfig(mission, **{k: v for k, v in values.items() if k not in _MISSION_TYPES})
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}") from None


def _workers_from_env(default: int) -> int:
    raw = os.environ.get("MESHCOORD_WORKERS")
    if raw is None:
        return default
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"MESHCOORD_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError("MESHCOORD_WORKERS must be at least 1")
    return workers


@contextmanager
def _artifact(path: Path) -> Iterator[TextIO]:
    """A file to write path's content into, renamed over path on success.

    Write-then-rename, so a crashed run never leaves a truncated artifact; a
    failed write removes the temporary file and raises ConfigError.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise ConfigError(f"config error: cannot write {path}: {exc}") from None


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _artifact(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _bounds_rows(seed: int) -> list[list]:
    rows = []
    for i in range(50):
        rng = random.Random(f"{seed}:bounds:{i}")
        obj, g = random_coverage_instance(rng, max_agents=5, max_actions=3)
        report = bound_report(obj, g, run_rag(obj, g))
        rows.append([i, obj.n_agents, *(getattr(report, c) for c in _BOUND_COLUMNS)])
    return rows


def _reference_runs() -> Iterator[tuple]:
    """(name, graph, action counts, rag outcome, sg outcome) on the line and star.

    sg decides in natural ascending order: on the star instance the center
    (agent 1) decides second, the documented worst-ish relay arrangement.
    """
    for name, build in (("line", reference_line_instance), ("star", reference_star_instance)):
        obj, g, _ = build()
        yield name, g, list(obj.action_counts), run_rag(obj, g), run_sg(obj, list(range(5)), g=g)


def cmd_run(config_path: str) -> int:
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        raise ConfigError(f"config error: cannot read {config_path}: {exc}") from None
    exp = parse_experiment_config(text)
    workers = _workers_from_env(1)

    out_dir = Path(exp.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(
            f"config error: output_dir {exp.output_dir!r} is not writable: {exc}"
        ) from None

    traces, summaries = monte_carlo(exp.missions(), workers=workers)
    variations = [asdict(s) for s in summaries]
    for v in variations:
        print(
            "{algorithm} k={k} n={n_agents} rate={data_rate_mbps}Mbps: "
            "peak {mean_peak_coverage:.1f}±{std_peak_coverage:.1f} cells, "
            "step time {mean_step_time_s:.4g}s".format_map(v)
        )

    if "traces" in exp.emit:
        _write_csv(out_dir / "traces.csv", TRACE_HEADER, trace_rows(traces))
    if "aggregates" in exp.emit:
        # every variation column but the per-step series
        columns = [c for c in variations[0] if c != "mean_coverage_by_step"]
        _write_csv(out_dir / "aggregates.csv", columns, [[v[c] for c in columns] for v in variations])
    if "bounds" in exp.emit:
        _write_csv(
            out_dir / "bounds.csv",
            ("instance", "n_agents", *_BOUND_COLUMNS),
            _bounds_rows(exp.mission.seed),
        )
    if "timings" in exp.emit:
        dm = exp.mission.delay_model()
        _write_csv(
            out_dir / "timings.csv",
            ("algorithm", "graph", "actions_per_agent", "sim_time_s", "time_bound_s"),
            [
                [outcome.algorithm, name, counts[0], decision_time(outcome, dm).seconds, bound]
                for name, g, counts, rag, sg in _reference_runs()
                for outcome, bound in ((rag, rag_time_bound(g, dm, counts)), (sg, ""))
            ],
        )

    summary = {
        "config": {
            "mission": asdict(exp.mission),
            "output_dir": exp.output_dir,
            "emit": sorted(exp.emit),
        },
        "variations": variations,
    }
    with _artifact(out_dir / "summary.json") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


# A check is a record (property, where, value, kind, bound[, tol]). Each kind
# maps to the comparison that fails a record, and to the sign its detail
# prints. at-least and at-most fail unless the bound holds, so a NaN value or
# bound fails every kind. close takes its tol as math.isclose's (rel_tol,
# abs_tol), and defaults to isclose's own.
_KINDS = {
    "at-least": (lambda value, bound, tol=0: not value >= bound - tol, "<"),
    "at-most": (lambda value, bound, tol=0: not value <= bound + tol, ">"),
    "close": (
        lambda value, bound, tol=(1e-9, 0.0): not math.isclose(value, bound, rel_tol=tol[0], abs_tol=tol[1]),
        "!=",
    ),
    "equal": (lambda value, bound: value != bound, "!="),
}


def _instance_checks(seed: int, i: int, max_agents: int, max_actions: int) -> Iterator[tuple]:
    """The check records on random instance i.

    The rng draws keep their order, so each instance and its checks depend
    only on (seed, i).
    """
    rng = random.Random(f"{seed}:{i}")
    obj, g = random_coverage_instance(rng, max_agents=max_agents, max_actions=max_actions)
    n = obj.n_agents  # at least 2, as dfs-sg needs
    outcome = run_rag(obj, g)
    report = bound_report(obj, g, outcome)
    opt, kappa = report.optimum_value, report.kappa
    tag = f"instance {i}"
    agents = [f"{tag}: agent {j}" for j in range(n)]

    yield "value-above-apriori-bound", tag, outcome.value, "at-least", report.apriori, 1e-9
    yield "value-above-aposteriori-bound", tag, outcome.value, "at-least", report.aposteriori, 1e-9
    yield "approx-greedy-eta1-matches-apriori", tag, report.approx_greedy, "close", report.apriori, (1e-12, 1e-12)
    half = run_rag(obj, g, eta=0.5, rng=random.Random(f"{seed}:{i}:eta"))
    half_bound = approx_greedy_bound(opt, kappa, coin_sum(obj, g, half.actions), 0.5)
    yield "eta-half-value-above-bound", tag, half.value, "at-least", half_bound, 1e-9

    order = list(range(n))
    rng.shuffle(order)
    sg = run_sg(obj, order)
    yield "sg-half-of-optimum", tag, sg.value, "at-least", opt / 2, 1e-9
    mesh = strongly_connected_line_plus(n, min(2, n * (n - 1) // 2 - (n - 1)), seed=i)
    dfs = run_dfs_sg(obj, mesh, start=rng.randrange(n))
    yield "dfs-sg-half-of-optimum", tag, dfs.value, "at-least", opt / 2, 1e-9
    dsm = run_dsm(obj, full_access_dag(order))
    yield "dsm-full-access-matches-sg", tag, dsm.actions, "equal", sg.actions
    yield "dsm-full-access-matches-sg", tag, dsm.value, "close", sg.value

    for j, (evals, count) in enumerate(zip(outcome.eval_counts, obj.action_counts)):
        yield "eval-counts-within-budget", agents[j], evals, "at-most", _rag_eval_cap(count, g.in_neighbors[j])
    round_cap = n - 1 if g.has_edges() else 0
    yield "rounds-within-agent-count", f"{tag}: gain rounds", outcome.gain_rounds, "at-most", round_cap
    yield "rounds-within-agent-count", f"{tag}: action rounds", outcome.action_rounds, "at-most", round_cap
    dm = DelayModel(tau_f=0.001, tau_c=0.01, tau_hash=0.0005)
    seconds, time_bound = decision_time(outcome, dm).seconds, rag_time_bound(g, dm, obj.action_counts)
    yield "sim-time-within-bound", tag, seconds, "at-most", time_bound, 1e-12

    for j in range(n):
        full_nbh = set(range(n)) - {j}
        centralized = abs(coin(obj, j, outcome.actions, full_nbh))
        yield "coin-centralized-zero", agents[j], centralized, "at-most", 0.0, 1e-9
        empty = coin(obj, j, outcome.actions, set())
        cap = kappa * obj.evaluate([outcome.actions[j]])
        yield "coin-empty-within-kappa-cap", agents[j], empty, "at-most", cap, 1e-9
        smaller = {a for a in full_nbh if rng.random() < 0.4}
        larger = smaller | {a for a in full_nbh if rng.random() < 0.4}
        grown, shrunk = coin(obj, j, outcome.actions, larger), coin(obj, j, outcome.actions, smaller)
        yield "coin-nested-monotone", agents[j], grown, "at-most", shrunk, 1e-9


def _reference_checks(seed: int) -> Iterator[tuple]:
    """The check records of the instance-free properties."""
    # reference timing reproductions, exact by construction
    dm = DelayModel(tau_f=2**-10, tau_c=2**-1, tau_hash=2**-13)
    relays = []
    for name, _, counts, rag, sg in _reference_runs():
        expect = 2 * counts[0] * dm.tau_f + dm.tau_c + dm.tau_hash
        yield f"reference-{name}-timing-exact", f"{name} graph", decision_time(rag, dm).seconds, "equal", expect
        expect_relays = {"line": 10, "star": 17}[name]
        relays.append(("sg-relay-counts", f"{name} graph", sg.relay_action_transmissions, "equal", expect_relays))
    yield from relays

    obj, g, _ = reference_line_instance()
    corrupted = run_rag(obj, g, tie_break="min-gain-highest-id")
    reproduced = sorted(corrupted.events[0].selectors) == [1, 3]
    where = "corrupted tie-break reproduced selectors [1, 3]"
    yield "negative-control-detects-corruption", where, reproduced, "equal", False

    yield "ring-bound-endpoints", "r_i 2.0", coin_ring_bound(1.0, 2.0), "equal", 0.0
    yield "ring-bound-endpoints", "r_i 1.0", coin_ring_bound(1.0, 1.0), "close", math.pi
    yield "ring-bound-endpoints", "r_i 3.0", coin_ring_bound(1.0, 3.0), "equal", 0.0

    r_s = 1.0
    rng = random.Random(seed)
    for _ in range(20):
        r_i = rng.uniform(r_s, 3 * r_s)
        theta = rng.uniform(0, 2 * math.pi)
        centers = [
            [(5.0, 5.0)],
            [(5.0 + r_i * math.cos(theta), 5.0 + r_i * math.sin(theta))],
        ]
        disk = DiskCoverageObjective(centers, r_s, arena=(0.0, 0.0, 10.0, 10.0), resolution=10)
        measured = coin(disk, 0, (disk.actions(0)[0], disk.actions(1)[0]), set())
        tol = 2 * math.pi * r_s * disk.cell_area * disk.resolution  # one boundary-cell layer
        yield "ring-bound-dominates-disk-coin", f"r_i {r_i}", measured, "at-most", coin_ring_bound(r_s, r_i), tol


def _details(records: Iterable[tuple]) -> Iterator[tuple[str, str | None]]:
    """(property, None or a failure detail) of each record; a detail is built only on failure."""
    for name, where, value, kind, bound, *tol in records:
        fails, sign = _KINDS[kind]
        yield name, f"{where}: {value} {sign} {bound}" if fails(value, bound, *tol) else None


def _first_failures(checks: Iterable[tuple[str, str | None]]) -> dict[str, str | None]:
    """Each property's first failure detail, or None while it holds, in first-seen order."""
    first_failure: dict[str, str | None] = {}
    for name, detail in checks:
        if first_failure.get(name) is None:
            first_failure[name] = detail
    return first_failure


def _verify_chunk(task: tuple[int, int, int, int, int]) -> dict[str, str | None]:
    """_first_failures of instances start to stop - 1.

    task is (seed, start, stop, max_agents, max_actions), so a pool can send it.
    """
    seed, start, stop, max_agents, max_actions = task
    return _first_failures(
        _details(chain.from_iterable(_instance_checks(seed, i, max_agents, max_actions) for i in range(start, stop)))
    )


def cmd_verify(seed: int, count: int, max_agents: int, max_actions: int) -> int:
    if count < 0:
        raise ConfigError("config error: count may not be negative")
    if max_agents < 2 or max_actions < 1:
        raise ConfigError("config error: need max_agents >= 2 and max_actions >= 1")
    # exact: past bit_length agents, any menu of 2 or more already exceeds the limit
    if max_actions ** min(max_agents, BRUTE_FORCE_LIMIT.bit_length()) > BRUTE_FORCE_LIMIT:
        raise ConfigError(
            f"config error: {max_actions}^{max_agents} joint selections exceed "
            f"the brute-force limit of {BRUTE_FORCE_LIMIT}"
        )
    team_cap = BRUTE_FORCE_LIMIT.bit_length() - 1  # the most agents the limit admits at two actions
    if max_agents > team_cap:  # one-action menus pass the guard above at any team size
        raise ConfigError(
            f"config error: --max-agents {max_agents} exceeds {team_cap}, "
            "the most the brute-force limit admits at two actions"
        )
    workers = _workers_from_env(
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    )
    if count == 0:
        print("warning: count=0 — instance-based properties pass vacuously")

    # contiguous runs of instances, a few per worker, checked on the pool; within a
    # run each instance is built only once the previous one's checks are used up.
    # Runs merge in instance order, so any worker count prints the same lines.
    chunks = min(count, _CHUNKS_PER_WORKER * workers)
    tasks = [
        (seed, c * count // chunks, (c + 1) * count // chunks, max_agents, max_actions)
        for c in range(chunks)
    ]
    found = _pool_map(_verify_chunk, tasks, workers)
    first_failure = _first_failures(chain(*(f.items() for f in found), _details(_reference_checks(seed))))
    for name, detail in first_failure.items():
        print(f"PASS {name}" if detail is None else f"FAIL {name} — {detail}")

    failures = sum(detail is not None for detail in first_failure.values())
    if failures:
        print(f"{failures} propert{'y' if failures == 1 else 'ies'} FAILED")
        return 1
    suffix = f" on {count} instances" if count else ""
    print(f"all properties passed{suffix}")
    return 0


def cmd_figures(out: str) -> int:
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"config error: cannot create {out!r}: {exc}") from None

    dm = DelayModel(tau_f=0.001, tau_c=0.8192, tau_hash=0.000256)
    rows = []
    for name, _, counts, *outcomes in _reference_runs():
        nv = counts[0]
        for outcome in outcomes:
            t = decision_time(outcome, dm)
            # every menu has nv actions; the figure counts tau_f in whole menus
            rows.append([
                outcome.algorithm, name, nv, t.tau_f_coefficient // nv,
                t.tau_c_coefficient, t.tau_hash_coefficient, t.seconds,
            ])
    _write_csv(
        out_dir / "fig4_timings.csv",
        (
            "algorithm", "graph", "actions_per_agent",
            "tau_f_coefficient", "tau_c_coefficient", "tau_hash_coefficient",
            "total_s",
        ),
        rows,
    )

    r_s = 1.0
    _write_csv(
        out_dir / "ring_bound.csv",
        ("r_s", "r_i", "bound_m2"),
        [[r_s, j / 20, coin_ring_bound(r_s, j / 20)] for j in range(61)],
    )
    print(f"wrote {out_dir / 'fig4_timings.csv'} and {out_dir / 'ring_bound.csv'}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meshcoord",
        description="Distributed coverage-coordination experiments, certification, and figure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config-driven experiment sweep")
    p_run.add_argument("config", nargs="?", help="path to a key = value config file")
    p_run.add_argument(
        "--print-default-config",
        action="store_true",
        help="print a commented config template and exit",
    )

    p_verify = sub.add_parser("verify", help="certify bounds and counters on random instances")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=200)
    p_verify.add_argument("--max-agents", type=int, default=5)
    p_verify.add_argument("--max-actions", type=int, default=3)

    p_figures = sub.add_parser("figures", help="write plot-ready reference CSVs")
    p_figures.add_argument("--out", default="figures")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "run":
            if args.print_default_config:
                print(DEFAULT_CONFIG_TEMPLATE, end="")
                return 0
            if args.config is None:
                raise ConfigError("config error: a config path is required (or --print-default-config)")
            return cmd_run(args.config)
        if args.command == "verify":
            return cmd_verify(args.seed, args.count, args.max_agents, args.max_actions)
        return cmd_figures(args.out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except MemoryError:
        print(f"environment error: {args.command} ran out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
