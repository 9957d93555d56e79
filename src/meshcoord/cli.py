"""Config-driven experiment runner: `run`, `verify`, and `figures` subcommands.

Configs are flat `key = value` text files (blank lines and full-line `#`
comments ignored); `meshcoord run --print-default-config` emits a commented
template. Exit codes: 0 success, 1 property violation, 2 config or
environment error. The MESHCOORD_WORKERS environment variable sizes the
trial worker pool (default 1, serial); a run starts at most one pool, shared
by all trials of all sweep variations.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from meshcoord.bounds import (
    apriori_bound,
    aposteriori_bound,
    approx_greedy_bound,
    bound_report,
)
from meshcoord.coordination import (
    BRUTE_FORCE_LIMIT,
    brute_force_optimum,
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
from meshcoord.objective import DiskCoverageObjective, coin, coin_ring_bound, curvature
from meshcoord.scenario import (
    ALGORITHMS,
    MissionConfig,
    TRACE_HEADER,
    monte_carlo,
    trace_rows,
)
from meshcoord.timing import DelayModel, decision_time, rag_time_bound
from meshcoord.topology import full_access_dag, strongly_connected_line_plus

EMIT_CHOICES = ("traces", "aggregates", "bounds", "timings")


class ConfigError(Exception):
    """Raised with a line/field diagnostic when a config cannot be used."""


@dataclass(frozen=True)
class ExperimentConfig:
    mission: MissionConfig
    sweep_algorithm: tuple[str, ...] = ()
    sweep_k: tuple[int, ...] = ()
    sweep_n_agents: tuple[int, ...] = ()
    sweep_data_rate_mbps: tuple[float, ...] = ()
    output_dir: str = "out"
    emit: frozenset[str] = frozenset({"traces", "aggregates"})

    def variations(self) -> list[tuple[str, int, int, float]]:
        """The sweep product as (algorithm, k, n_agents, data_rate_mbps) rows.

        Empty sweep lists fall back to the mission's own value, so the
        product is never empty.
        """
        m = self.mission
        algorithms = self.sweep_algorithm or (m.algorithm,)
        ks = self.sweep_k or (m.k,)
        ns = self.sweep_n_agents or (m.n_agents,)
        rates = self.sweep_data_rate_mbps or (m.data_rate_mbps,)
        return [
            (a, k, n, r)
            for a in algorithms
            for k in ks
            for n in ns
            for r in rates
        ]

    def missions(self) -> list[MissionConfig]:
        """One MissionConfig per sweep variation, in variations() order."""
        return [
            replace(self.mission, algorithm=a, k=k, n_agents=n, data_rate_mbps=r)
            for a, k, n, r in self.variations()
        ]


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

_INT_KEYS = {
    "n_agents", "world_width", "world_height", "corridor_width", "fov_width",
    "fov_height", "move_magnitude", "steps", "k", "trials", "seed",
    "spawn_width", "spawn_height",
}
_FLOAT_KEYS = {
    "road_density", "comm_range", "tau_f", "tau_hash", "message_kib",
    "data_rate_mbps",
}
_STR_KEYS = {"algorithm", "road_mask_path", "output_dir"}
_LIST_KEYS = {
    "sweep_algorithm", "sweep_k", "sweep_n_agents", "sweep_data_rate_mbps",
    "emit",
}
_OPTIONAL_KEYS = {"road_mask_path", "spawn_width", "spawn_height"}
_MISSION_KEYS = {f.name for f in fields(MissionConfig)}


def _split_list(value: str) -> list[str]:
    return [tok for tok in value.replace(",", " ").split() if tok]


def parse_experiment_config(text: str) -> ExperimentConfig:
    mission_kwargs: dict = {}
    sweeps: dict = {
        "sweep_algorithm": (),
        "sweep_k": (),
        "sweep_n_agents": (),
        "sweep_data_rate_mbps": (),
    }
    output_dir = "out"
    emit = frozenset({"traces", "aggregates"})

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        known = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _LIST_KEYS
        if key not in known:
            raise ConfigError(f"config line {lineno}: unknown field {key!r}")
        if not value:
            if key in _OPTIONAL_KEYS or key in _LIST_KEYS:
                continue  # keep the default
            raise ConfigError(f"config line {lineno}: field {key!r} needs a value")
        try:
            if key in _INT_KEYS:
                parsed: object = int(value)
            elif key in _FLOAT_KEYS:
                parsed = float(value)
            elif key == "sweep_k" or key == "sweep_n_agents":
                parsed = tuple(int(tok) for tok in _split_list(value))
            elif key == "sweep_data_rate_mbps":
                parsed = tuple(float(tok) for tok in _split_list(value))
            elif key == "sweep_algorithm" or key == "emit":
                parsed = tuple(_split_list(value))
            else:
                parsed = value
        except ValueError:
            kind = "an integer" if key in _INT_KEYS or key in {"sweep_k", "sweep_n_agents"} else "a number"
            raise ConfigError(
                f"config line {lineno}: field {key!r} expects {kind}, got {value!r}"
            ) from None

        if key == "algorithm" and parsed not in ALGORITHMS:
            raise ConfigError(
                f"config line {lineno}: algorithm must be one of {', '.join(ALGORITHMS)}"
            )
        if key == "sweep_algorithm":
            bad = [a for a in parsed if a not in ALGORITHMS]
            if bad:
                raise ConfigError(
                    f"config line {lineno}: unknown algorithm(s) {', '.join(bad)}"
                )
        if key == "emit":
            bad = [e for e in parsed if e not in EMIT_CHOICES]
            if bad:
                raise ConfigError(
                    f"config line {lineno}: emit accepts {', '.join(EMIT_CHOICES)}, got {', '.join(bad)}"
                )
            emit = frozenset(parsed)
        elif key == "output_dir":
            output_dir = parsed  # type: ignore[assignment]
        elif key in sweeps:
            sweeps[key] = parsed
        else:
            mission_kwargs[key] = parsed

    mission = MissionConfig(**mission_kwargs)
    exp = ExperimentConfig(mission=mission, output_dir=output_dir, emit=emit, **sweeps)
    try:
        mission.validate()
        for cfg in exp.missions():
            cfg.validate()
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}") from None
    return exp


def _workers_from_env() -> int:
    raw = os.environ.get("MESHCOORD_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"MESHCOORD_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError("MESHCOORD_WORKERS must be at least 1")
    return workers


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    # write-then-rename so a crashed run never leaves a truncated table
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _bounds_rows(seed: int) -> list[list]:
    rows = []
    for i in range(50):
        rng = random.Random(f"{seed}:bounds:{i}")
        obj, g = random_coverage_instance(rng, max_agents=5, max_actions=3)
        outcome = run_rag(obj, g)
        report = bound_report(obj, g, outcome, assume_submodular=True)
        rows.append([
            i,
            obj.n_agents,
            outcome.value,
            report.optimum_value,
            report.apriori,
            report.aposteriori,
            report.approx_greedy,
            report.coin_sum,
            report.kappa,
            report.certified,
        ])
    return rows


def _timings_rows(dm: DelayModel) -> list[list]:
    rows = []
    for name, build in (("line", reference_line_instance), ("star", reference_star_instance)):
        obj, g, _ = build()
        counts = list(obj.action_counts)
        # natural ascending order: on the star instance the center (agent 1)
        # decides second, the documented worst-ish relay arrangement
        for outcome, bound in (
            (run_rag(obj, g), rag_time_bound(g, dm, counts)),
            (run_sg(obj, list(range(5)), g=g), ""),
        ):
            rows.append([
                outcome.algorithm, name, counts[0],
                decision_time(outcome, dm, counts).seconds, bound,
            ])
    return rows


def cmd_run(config_path: str) -> int:
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        print(f"config error: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2
    try:
        exp = parse_experiment_config(text)
        workers = _workers_from_env()
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    out_dir = Path(exp.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"config error: output_dir {exp.output_dir!r} is not writable: {exc}", file=sys.stderr)
        return 2

    missions = exp.missions()
    all_runs, summaries = monte_carlo(missions, workers=workers)
    summary_rows = [(s, cfg.n_agents, cfg.data_rate_mbps) for s, cfg in zip(summaries, missions)]
    for s, n, rate in summary_rows:
        print(
            f"{s.algorithm} k={s.k} n={n} rate={rate}Mbps: "
            f"peak {s.mean_peak_coverage:.1f}±{s.std_peak_coverage:.1f} cells, "
            f"step time {s.mean_step_time_s:.4g}s"
        )

    if "traces" in exp.emit:
        _write_csv(out_dir / "traces.csv", TRACE_HEADER, trace_rows(all_runs))
    if "aggregates" in exp.emit:
        _write_csv(
            out_dir / "aggregates.csv",
            (
                "algorithm", "k", "n_agents", "data_rate_mbps", "trials",
                "mean_peak_coverage", "std_peak_coverage",
                "mean_step_time_s", "std_step_time_s",
            ),
            [
                [
                    s.algorithm, s.k, n, rate, s.trials,
                    s.mean_peak_coverage, s.std_peak_coverage,
                    s.mean_step_time_s, s.std_step_time_s,
                ]
                for s, n, rate in summary_rows
            ],
        )
    if "bounds" in exp.emit:
        _write_csv(
            out_dir / "bounds.csv",
            (
                "instance", "n_agents", "algorithm_value", "optimum_value",
                "apriori", "aposteriori", "approx_greedy", "coin_sum",
                "kappa", "certified",
            ),
            _bounds_rows(exp.mission.seed),
        )
    if "timings" in exp.emit:
        _write_csv(
            out_dir / "timings.csv",
            ("algorithm", "graph", "actions_per_agent", "sim_time_s", "time_bound_s"),
            _timings_rows(exp.mission.delay_model()),
        )

    summary = {
        "config": {
            "mission": {f.name: getattr(exp.mission, f.name) for f in fields(MissionConfig)},
            "output_dir": exp.output_dir,
            "emit": sorted(exp.emit),
        },
        "variations": [
            {
                "algorithm": s.algorithm,
                "k": s.k,
                "n_agents": n,
                "data_rate_mbps": rate,
                "trials": s.trials,
                "mean_peak_coverage": s.mean_peak_coverage,
                "std_peak_coverage": s.std_peak_coverage,
                "mean_step_time_s": s.mean_step_time_s,
                "std_step_time_s": s.std_step_time_s,
                "mean_coverage_by_step": list(s.mean_coverage_by_step),
            }
            for s, n, rate in summary_rows
        ],
    }
    tmp = out_dir / "summary.json.tmp"
    tmp.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, out_dir / "summary.json")
    return 0


class _Checker:
    """Collects pass/fail lines for the verification properties."""

    def __init__(self):
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            print(f"PASS {name}")
        else:
            self.failures += 1
            print(f"FAIL {name}" + (f" — {detail}" if detail else ""))


def cmd_verify(seed: int, count: int, max_agents: int, max_actions: int) -> int:
    if count < 0:
        print("config error: count may not be negative", file=sys.stderr)
        return 2
    if max_agents < 2 or max_actions < 1:
        print("config error: need max_agents >= 2 and max_actions >= 1", file=sys.stderr)
        return 2
    if max_actions**max_agents > BRUTE_FORCE_LIMIT:
        print(
            f"config error: {max_actions}^{max_agents} joint selections exceed "
            f"the brute-force limit of {BRUTE_FORCE_LIMIT}",
            file=sys.stderr,
        )
        return 2

    c = _Checker()
    if count == 0:
        print("warning: count=0 — instance-based properties pass vacuously")

    bad: dict[str, str] = {}
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        obj, g = random_coverage_instance(rng, max_agents=max_agents, max_actions=max_actions)
        n = obj.n_agents
        outcome = run_rag(obj, g)
        _, opt = brute_force_optimum(obj)
        kappa = curvature(obj)
        tag = f"instance {i}"

        apriori = apriori_bound(obj, g, outcome, optimum_value=opt, kappa=kappa)
        if outcome.value < apriori - 1e-9:
            bad.setdefault("value-above-apriori-bound", f"{tag}: {outcome.value} < {apriori}")
        apost = aposteriori_bound(obj, outcome, optimum_value=opt, kappa=kappa)
        if outcome.value < apost - 1e-9:
            bad.setdefault("value-above-aposteriori-bound", f"{tag}: {outcome.value} < {apost}")
        eta_one = approx_greedy_bound(obj, g, outcome, 1.0, optimum_value=opt, kappa=kappa)
        if not math.isclose(eta_one, apriori, rel_tol=1e-12, abs_tol=1e-12):
            bad.setdefault("approx-greedy-eta1-matches-apriori", f"{tag}: {eta_one} != {apriori}")
        half = run_rag(obj, g, eta=0.5, rng=random.Random(f"{seed}:{i}:eta"))
        half_bound = approx_greedy_bound(obj, g, half, 0.5, optimum_value=opt, kappa=kappa)
        if half.value < half_bound - 1e-9:
            bad.setdefault("eta-half-value-above-bound", f"{tag}: {half.value} < {half_bound}")

        order = list(range(n))
        rng.shuffle(order)
        sg = run_sg(obj, order)
        if sg.value < opt / 2 - 1e-9:
            bad.setdefault("sg-half-of-optimum", f"{tag}: {sg.value} < {opt / 2}")
        if n >= 2:
            mesh = strongly_connected_line_plus(n, min(2, n * (n - 1) // 2 - (n - 1)), seed=i)
            dfs = run_dfs_sg(obj, mesh, start=rng.randrange(n))
            if dfs.value < opt / 2 - 1e-9:
                bad.setdefault("dfs-sg-half-of-optimum", f"{tag}: {dfs.value} < {opt / 2}")
        dsm = run_dsm(obj, full_access_dag(order))
        if not (dsm.actions == sg.actions and math.isclose(dsm.value, sg.value)):
            bad.setdefault("dsm-full-access-matches-sg", tag)

        budgets = [
            obj.action_counts[j] * (max(1, len(g.in_neighbors[j])) + 1) for j in range(n)
        ]
        if any(e > b for e, b in zip(outcome.eval_counts, budgets)):
            bad.setdefault("eval-counts-within-budget", f"{tag}: {outcome.eval_counts} > {budgets}")
        round_cap = n - 1 if g.has_edges() else 0
        if outcome.gain_rounds > round_cap or outcome.action_rounds > round_cap:
            bad.setdefault(
                "rounds-within-agent-count",
                f"{tag}: rounds {outcome.gain_rounds}/{outcome.action_rounds} > {round_cap}",
            )
        dm = DelayModel(tau_f=0.001, tau_c=0.01, tau_hash=0.0005)
        counts = list(obj.action_counts)
        if decision_time(outcome, dm, counts).seconds > rag_time_bound(g, dm, counts) + 1e-12:
            bad.setdefault("sim-time-within-bound", tag)

        for j in range(n):
            full_nbh = set(range(n)) - {j}
            if abs(coin(obj, j, outcome.actions, full_nbh)) > 1e-9:
                bad.setdefault("coin-centralized-zero", f"{tag}: agent {j}")
            empty = coin(obj, j, outcome.actions, set())
            single = obj.evaluate([outcome.actions[j]])
            if empty > kappa * single + 1e-9:
                bad.setdefault("coin-empty-within-kappa-cap", f"{tag}: agent {j}")
            smaller = {a for a in full_nbh if rng.random() < 0.4}
            larger = smaller | {a for a in full_nbh if rng.random() < 0.4}
            if coin(obj, j, outcome.actions, larger) > coin(obj, j, outcome.actions, smaller) + 1e-9:
                bad.setdefault("coin-nested-monotone", f"{tag}: agent {j}")

    if count > 0:
        for name in (
            "value-above-apriori-bound",
            "value-above-aposteriori-bound",
            "approx-greedy-eta1-matches-apriori",
            "eta-half-value-above-bound",
            "sg-half-of-optimum",
            "dfs-sg-half-of-optimum",
            "dsm-full-access-matches-sg",
            "eval-counts-within-budget",
            "rounds-within-agent-count",
            "sim-time-within-bound",
            "coin-centralized-zero",
            "coin-empty-within-kappa-cap",
            "coin-nested-monotone",
        ):
            c.check(name, name not in bad, bad.get(name, ""))

    # reference timing reproductions, exact by construction
    dm = DelayModel(tau_f=2**-10, tau_c=2**-1, tau_hash=2**-13)
    for name, build in (("line", reference_line_instance), ("star", reference_star_instance)):
        obj, g, _ = build()
        counts = list(obj.action_counts)
        got = decision_time(run_rag(obj, g), dm, counts).seconds
        expect = 2 * counts[0] * dm.tau_f + dm.tau_c + dm.tau_hash
        c.check(f"reference-{name}-timing-exact", got == expect, f"got {got}, want {expect}")

    obj, g, _ = reference_line_instance()
    sg = run_sg(obj, list(range(5)), g=g)
    obj_s, g_s, _ = reference_star_instance()
    sg_star = run_sg(obj_s, list(range(5)), g=g_s)  # center (agent 1) is second
    c.check(
        "sg-relay-counts",
        sg.relay_action_transmissions == 10 and sg_star.relay_action_transmissions == 17,
        f"line {sg.relay_action_transmissions}, star {sg_star.relay_action_transmissions}",
    )

    corrupted = run_rag(obj, g, tie_break="min-gain-highest-id")
    c.check(
        "negative-control-detects-corruption",
        sorted(corrupted.events[0].selectors) != [1, 3],
        "corrupted tie-break still reproduced the reference gain arrangement",
    )

    c.check(
        "ring-bound-endpoints",
        coin_ring_bound(1.0, 2.0) == 0.0
        and math.isclose(coin_ring_bound(1.0, 1.0), math.pi)
        and coin_ring_bound(1.0, 3.0) == 0.0,
    )

    r_s = 1.0
    rng = random.Random(seed)
    dominated = True
    for _ in range(20):
        r_i = rng.uniform(r_s, 3 * r_s)
        theta = rng.uniform(0, 2 * math.pi)
        centers = [
            [(5.0, 5.0)],
            [(5.0 + r_i * math.cos(theta), 5.0 + r_i * math.sin(theta))],
        ]
        disk = DiskCoverageObjective(centers, r_s, arena=(0.0, 0.0, 10.0, 10.0), resolution=10)
        actions = (disk.actions(0)[0], disk.actions(1)[0])
        measured = coin(disk, 0, actions, set())
        tol = 2 * math.pi * r_s * disk.cell_area * disk.resolution  # one boundary-cell layer
        if measured > coin_ring_bound(r_s, r_i) + tol:
            dominated = False
    c.check("ring-bound-dominates-disk-coin", dominated)

    if c.failures:
        print(f"{c.failures} propert{'y' if c.failures == 1 else 'ies'} FAILED")
        return 1
    suffix = f" on {count} instances" if count else ""
    print(f"all properties passed{suffix}")
    return 0


def cmd_figures(out: str) -> int:
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create {out!r}: {exc}", file=sys.stderr)
        return 2

    dm = DelayModel(tau_f=0.001, tau_c=0.8192, tau_hash=0.000256)
    rows = []
    for name, build in (("line", reference_line_instance), ("star", reference_star_instance)):
        obj, g, _ = build()
        counts = list(obj.action_counts)
        nv = counts[0]
        # star center (agent 1) decides second under sg
        for outcome in (run_rag(obj, g), run_sg(obj, list(range(5)), g=g)):
            t = decision_time(outcome, dm, counts)
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

    if args.command == "run":
        if args.print_default_config:
            print(DEFAULT_CONFIG_TEMPLATE, end="")
            return 0
        if args.config is None:
            print("config error: a config path is required (or --print-default-config)", file=sys.stderr)
            return 2
        return cmd_run(args.config)
    if args.command == "verify":
        return cmd_verify(args.seed, args.count, args.max_agents, args.max_actions)
    return cmd_figures(args.out)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
