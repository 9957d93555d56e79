"""Multi-step grid-world coverage missions with Monte Carlo aggregation.

Each step the team self-configures its communication graph from current
positions, coordinates one joint action under the configured rule, moves, and
banks the newly seen road cells into a shared covered set. The per-step
objective counts only road cells outside that set, so every step optimizes a
fresh normalized monotone coverage function.

Trials are deterministic in (seed, trial) and the world stream is independent
of the algorithm and k, so runs of different variations with the same trial
index share road masks and initial positions — the pairing the Monte Carlo
comparisons rely on. monte_carlo builds each such world, with its footprint
cache, once for all the missions of a batch that draw it.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from statistics import fmean, pstdev
from typing import Callable, Iterator, Sequence, get_args, get_type_hints

from meshcoord.coordination import (
    _run_sequential,
    _schedule,
    run_dsm,
    run_rag,
    run_random_baseline,
)
from meshcoord.instances import MOVES, _clip_move
from meshcoord.objective import (
    _MISSION_SIZE_LIMIT,
    _UnionMaskObjective,
    parse_road_mask,
    random_road_mask,
    rect_mask,
    road_bits,
)
from meshcoord.timing import DelayModel, decision_time
from meshcoord.topology import InfoDag, dfs_order, full_access_dag, knn_graph, strongly_connected_line_plus

ALGORITHMS = ("rag", "sg", "dfs-sg", "dsm", "random")

# the most missions one sweep may run, trials x variations: 2^18, as each
# trace is held to the end. Peak RSS of a serial monte_carlo of the default
# mission (Python 3.11, 2-core x86-64 Linux): 2^18 missions of no steps,
# 315 MB in 35 s; 20,000 of its 8 steps, 69 MB in 37 s (2.6 KB a mission, so
# about 700 MB at the limit). Past it a sweep fails before indexing a mission.
_SWEEP_MISSION_LIMIT = 1 << 18


@dataclass(frozen=True)
class MissionConfig:
    n_agents: int = 6
    world_width: int = 24
    world_height: int = 24
    road_density: float = 0.45
    corridor_width: int = 2
    road_mask_path: str | None = None
    fov_width: int = 3
    fov_height: int = 3
    move_magnitude: int = 2
    steps: int = 8
    comm_range: float = 10.0
    k: int = 2
    algorithm: str = "rag"
    tau_f: float = 0.001
    tau_hash: float = 0.000256
    message_kib: float = 25.0
    data_rate_mbps: float = 0.25
    trials: int = 5
    seed: int = 0
    spawn_width: int | None = None
    spawn_height: int | None = None

    def __post_init__(self) -> None:
        """Raises ValueError naming the offending field, so every instance is valid.

        Unpickling does not run this, so configs sent to workers are not checked again.
        """
        for name, types in _INT_FIELDS.items():
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, types):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        # comm_range may be +inf (everyone in range); the other floats must be finite
        for name in _FLOAT_FIELDS:
            v = getattr(self, name)
            if isinstance(v, int) and abs(v) > sys.float_info.max:  # math.isfinite would overflow
                raise ValueError(f"{name} must be a finite number, got an int of {v.bit_length()} bits")
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
                math.isfinite(v) or (name == "comm_range" and v == math.inf)
            ):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        if self.n_agents > _MISSION_SIZE_LIMIT:
            raise ValueError(f"n_agents may be at most {_MISSION_SIZE_LIMIT:,}, got {self.n_agents:,}")
        if self.world_width < 1 or self.world_height < 1:
            raise ValueError("world_width and world_height must be positive")
        if self.road_mask_path is None and self.world_width * self.world_height > _MISSION_SIZE_LIMIT:
            raise ValueError(
                f"world_width x world_height may be at most {_MISSION_SIZE_LIMIT:,} cells,"
                f" got {self.world_width:,} x {self.world_height:,}"
            )
        if self.fov_width < 1 or self.fov_height < 1:
            raise ValueError("fov_width and fov_height must be positive")
        if self.road_mask_path is None:
            if not 0 < self.road_density <= 1:
                raise ValueError("road_density must be in (0, 1]")
            if self.corridor_width < 1:
                raise ValueError("corridor_width must be positive")
        if self.move_magnitude < 1:
            raise ValueError("move_magnitude must be positive")
        if self.steps < 0:
            raise ValueError("steps may not be negative")
        if self.comm_range <= 0:
            raise ValueError("comm_range must be positive")
        if self.k < 0:
            raise ValueError("k may not be negative")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.tau_f < 0 or self.tau_hash < 0:
            raise ValueError("tau_f and tau_hash may not be negative")
        if self.message_kib <= 0:
            raise ValueError("message_kib must be positive")
        if self.data_rate_mbps <= 0:
            raise ValueError("data_rate_mbps must be positive")
        try:  # finite values can still overflow the derived per-action delay
            self.delay_model()
        except ValueError as exc:
            raise ValueError(f"message_kib and data_rate_mbps give an unusable delay: {exc}") from None
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for name in ("spawn_width", "spawn_height"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be positive when set")
        if self.algorithm == "dfs-sg" and self.n_agents < 2:
            raise ValueError("n_agents must be at least 2 for algorithm dfs-sg")
        # last, since it may read the mask file, which then sets the world size
        width, height = self.world_width, self.world_height
        if self.road_mask_path is not None:
            rows = _read_road_mask(self.road_mask_path)
            width, height = len(rows[0]), len(rows)
        if self.fov_width > width or self.fov_height > height:
            raise ValueError(f"fov_width/fov_height must fit inside the {width}x{height} world")

    def delay_model(self) -> DelayModel:
        return DelayModel.from_rate(
            self.tau_f, self.tau_hash, self.message_kib * 1024.0, self.data_rate_mbps * 1e6
        )


_FLOAT_FIELDS = tuple(name for name, hint in get_type_hints(MissionConfig).items() if hint is float)
# each int field's allowed types: (int,), or (int, NoneType) for an optional one
_INT_FIELDS = {
    name: get_args(hint) or (int,)
    for name, hint in get_type_hints(MissionConfig).items()
    if int in (hint, *get_args(hint))
}


@dataclass(frozen=True)
class StepRecord:
    step: int
    covered_cells: int
    step_sim_time_s: float
    gain_rounds: int
    action_rounds: int
    max_evals: int


@dataclass(frozen=True)
class MissionTrace:
    algorithm: str
    k: int
    trial: int
    road_cell_count: int
    initial_positions: tuple[tuple[int, int], ...]
    records: tuple[StepRecord, ...] = field(default=())

    @property
    def peak_coverage(self) -> int:
        """Cumulative coverage is non-decreasing, so the last record is the peak."""
        return self.records[-1].covered_cells if self.records else 0

    @property
    def mean_step_time(self) -> float:
        if not self.records:
            return 0.0
        return fmean(r.step_sim_time_s for r in self.records)


@dataclass(frozen=True)
class VariationSummary:
    """One variation's row of summary.json, and of aggregates.csv less the per-step series.

    asdict gives the columns in field order.
    """

    algorithm: str
    k: int
    n_agents: int
    data_rate_mbps: float
    trials: int
    mean_peak_coverage: float
    std_peak_coverage: float
    mean_step_time_s: float
    std_step_time_s: float
    mean_coverage_by_step: tuple[float, ...]


def _read_road_mask(path: str) -> list[str]:
    """The mask file's rows, once its size and then its cell count are within _MISSION_SIZE_LIMIT."""
    try:
        size = Path(path).stat().st_size
        if size > 3 * _MISSION_SIZE_LIMIT:  # a cell is one byte, plus at most two for a line end
            raise ValueError(f"its {size:,} bytes are more than a mask of {_MISSION_SIZE_LIMIT:,} cells can take")
        rows = parse_road_mask(Path(path).read_text())
        if len(rows) * len(rows[0]) > _MISSION_SIZE_LIMIT:
            raise ValueError(f"its {len(rows[0]):,} x {len(rows):,} cells are more than {_MISSION_SIZE_LIMIT:,}")
        return rows
    except (OSError, ValueError) as exc:
        raise ValueError(f"road_mask_path {path!r} is not a usable road mask: {exc}") from None


def _load_world(cfg: MissionConfig, rng: random.Random) -> list[str]:
    if cfg.road_mask_path is not None:
        return _read_road_mask(cfg.road_mask_path)
    return random_road_mask(
        rng, cfg.world_width, cfg.world_height, cfg.road_density, cfg.corridor_width
    )


def _spawn(cfg: MissionConfig, rng: random.Random, width: int, height: int) -> list[tuple[int, int]]:
    bw = min(width, cfg.spawn_width or width)
    bh = min(height, cfg.spawn_height or height)
    x0 = (width - bw) // 2
    y0 = (height - bh) // 2
    return [(x0 + rng.randrange(bw), y0 + rng.randrange(bh)) for _ in range(cfg.n_agents)]


@dataclass
class _World:
    """One trial's world, shared by the missions of a sweep that draw it.

    The footprint and reach caches fill lazily and depend on the field of
    view and the move length, so those are part of the world's key. The rng
    state is the world stream's right after the mask draw: each mission
    restores it to draw its own spawn.
    """

    mask: list[str]
    roads: int
    rng_state: tuple
    # road footprint mask per grid position, and per agent position the
    # destinations of its MOVES with their footprints, built on first use
    footprints: dict[tuple[int, int], int] = field(default_factory=dict)
    reach: dict[tuple[int, int], tuple[tuple[tuple[int, int], ...], tuple[int, ...]]] = field(
        default_factory=dict
    )


# the config fields that a world's mask or caches read; with the trial, they key the world
_WORLD_FIELDS = (
    "seed", "world_width", "world_height", "road_density", "corridor_width",
    "road_mask_path", "fov_width", "fov_height", "move_magnitude",
)


def _world_key(cfg: MissionConfig, trial: int) -> tuple:
    return (trial, *(getattr(cfg, name) for name in _WORLD_FIELDS))


def _build_world(cfg: MissionConfig, trial: int) -> _World:
    rng = random.Random(f"{cfg.seed}:{trial}:world")
    mask = _load_world(cfg, rng)
    return _World(mask, road_bits(mask), rng.getstate())


def run_mission(cfg: MissionConfig, trial: int = 0, *, _world: _World | None = None) -> MissionTrace:
    """One deterministic mission; trial selects the paired random streams.

    The world stream (mask + spawn) is keyed only by (seed, trial), the
    algorithm stream by (seed, trial, algorithm, k): two variations replayed
    at equal trial indices start from identical worlds. Called alone, it
    builds its own world; monte_carlo passes one world, keyed by
    _world_key, to every mission of a batch.

    The world is kept as ints (bit y * width + x per cell): the road mask,
    the covered mask, and one road-clipped footprint mask per grid position,
    cached with the world. Each step's objective is the footprint masks of
    the agents' candidate destinations ANDed with the still-uncovered road,
    so it counts only newly seen road cells.
    """
    world = _build_world(cfg, trial) if _world is None else _world
    rng_world = random.Random()
    rng_world.setstate(world.rng_state)
    rng_alg = random.Random(f"{cfg.seed}:{trial}:alg:{cfg.algorithm}:{cfg.k}")

    height = len(world.mask)
    width = len(world.mask[0])
    roads = world.roads
    positions = _spawn(cfg, rng_world, width, height)
    initial = tuple(positions)
    footprints, reach = world.footprints, world.reach

    n = cfg.n_agents
    dm = cfg.delay_model()

    # per-trial randomness of the sequential rules: one decision order for
    # sg/dsm, one relay mesh and start for dfs-sg; sg's and dfs-sg's whole
    # schedule (order, events, relay count) is fixed by them for the mission
    order = list(range(n))
    rng_alg.shuffle(order)
    schedule = None
    if cfg.algorithm == "sg":
        schedule = _schedule("sg", full_access_dag(order), None)
    elif cfg.algorithm == "dfs-sg":
        max_extra = n * (n - 1) // 2 - (n - 1)
        dfs_graph = strongly_connected_line_plus(
            n, min(2 * n, max_extra), seed=rng_alg.randrange(2**32)
        )
        dfs_start = rng_alg.randrange(n)
        schedule = _schedule("dfs-sg", dfs_order(dfs_graph, dfs_start), dfs_graph)

    covered = 0
    records: list[StepRecord] = []
    for step in range(1, cfg.steps + 1):
        for p in positions:
            if p not in reach:
                row = tuple(_clip_move(p, move, cfg.move_magnitude, width, height) for move in MOVES)
                for dest in row:
                    if dest not in footprints:
                        footprints[dest] = roads & rect_mask(
                            *dest, cfg.fov_width, cfg.fov_height, width, height
                        )
                reach[p] = row, tuple(map(footprints.__getitem__, row))
        rows = [reach[p] for p in positions]
        obj = _UnionMaskObjective([masks for _, masks in rows], within=roads & ~covered)

        pts = [(float(x), float(y)) for x, y in positions]
        if cfg.algorithm == "rag":
            g = knn_graph(pts, cfg.k, cfg.comm_range)
            outcome = run_rag(obj, g)
        elif schedule is not None:  # sg or dfs-sg
            outcome = _run_sequential(obj, schedule)
        elif cfg.algorithm == "dsm":
            g = knn_graph(pts, cfg.k, cfg.comm_range)
            seen: set[int] = set()
            access = []
            for agent in order:
                access.append(frozenset(seen & g.in_neighbors[agent]))
                seen.add(agent)
            outcome = run_dsm(obj, InfoDag(order=tuple(order), access=tuple(access)))
        else:
            outcome = run_random_baseline(obj, rng_alg)
        sim_time = decision_time(outcome, dm).seconds

        for i, e in enumerate(outcome.actions):
            dests, masks = rows[i]
            positions[i] = dests[e.action]
            covered |= masks[e.action]

        records.append(
            StepRecord(
                step=step,
                covered_cells=covered.bit_count(),
                step_sim_time_s=sim_time,
                gain_rounds=outcome.gain_rounds,
                action_rounds=outcome.action_rounds,
                max_evals=max(outcome.eval_counts),
            )
        )

    return MissionTrace(
        algorithm=cfg.algorithm,
        k=cfg.k,
        trial=trial,
        road_cell_count=roads.bit_count(),
        initial_positions=initial,
        records=tuple(records),
    )


def _run_batch(batch: Sequence[tuple[MissionConfig, int]]) -> list[MissionTrace]:
    """The missions of one world, in order; the world is built once for all of them."""
    world = _build_world(*batch[0])
    return [run_mission(cfg, trial, _world=world) for cfg, trial in batch]


def _batches(variations: Sequence[MissionConfig], parts_wanted: int) -> list[list[tuple[int, int]]]:
    """The (variation index, trial) missions grouped by world, trial-major.

    Each world's group is split into contiguous parts until there are at
    least parts_wanted batches (at most one mission per part).
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for trial in range(max(cfg.trials for cfg in variations)):
        for v, cfg in enumerate(variations):
            if trial < cfg.trials:
                groups.setdefault(_world_key(cfg, trial), []).append((v, trial))
    parts = 1
    while sum(min(parts, len(g)) for g in groups.values()) < parts_wanted:
        parts += 1
    batches = []
    for g in groups.values():
        p = min(parts, len(g))
        batches.extend(g[i * len(g) // p : (i + 1) * len(g) // p] for i in range(p))
    return batches


def _sweep_missions(variations: Sequence[MissionConfig]) -> int:
    """The missions a sweep runs, every variation's trials summed; ValueError past _SWEEP_MISSION_LIMIT."""
    missions = sum(cfg.trials for cfg in variations)
    if missions > _SWEEP_MISSION_LIMIT:
        raise ValueError(f"trials x variations may be at most {_SWEEP_MISSION_LIMIT:,} missions, got {missions:,}")
    return missions


def _pool_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """[fn(task) for task in tasks], on one pool of min(workers, len(tasks)) processes.

    fn must be a top-level function. Below two processes the tasks run here,
    in order, and concurrent.futures is not imported. A task's exception is
    raised here: the pool cancels the tasks it has not yet queued for a
    process, and shuts down once the queued ones end.
    """
    workers = min(workers, len(tasks))
    if workers < 2:
        return list(map(fn, tasks))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def monte_carlo(
    variations: Sequence[MissionConfig],
    workers: int = 1,
) -> tuple[list[MissionTrace], list[VariationSummary]]:
    """Paired trials of every variation, serial or on one process pool.

    Each variation is a full MissionConfig, valid by construction, and runs
    its own cfg.trials trials. The missions that draw the same world (equal
    trial and _WORLD_FIELDS) form one batch, which builds that world once;
    batches run trial-major, and each holds one world at a time. With
    workers > 1 and fewer worlds than min(workers, missions), each world's
    batch is split into contiguous parts until there are enough, and all
    batches are mapped over a single pool of min(workers, batches)
    processes, so the pool never has more processes than tasks. Traces come
    back in (variation, trial) order however many workers run, so outputs
    are deterministic either way. Past _SWEEP_MISSION_LIMIT missions in all
    it raises ValueError before any runs.
    """
    if not variations:
        raise ValueError("need at least one variation")
    missions = _sweep_missions(variations)
    batches = _batches(variations, min(workers, missions))
    tasks = [[(variations[v], trial) for v, trial in batch] for batch in batches]
    done = _pool_map(_run_batch, tasks, workers)
    by_mission = {
        mission: trace for batch, traces in zip(batches, done) for mission, trace in zip(batch, traces)
    }
    traces = [by_mission[v, trial] for v, cfg in enumerate(variations) for trial in range(cfg.trials)]

    summaries = []
    start = 0
    for cfg in variations:
        batch = traces[start : start + cfg.trials]
        start += cfg.trials
        peaks = [t.peak_coverage for t in batch]
        times = [t.mean_step_time for t in batch]
        by_step = tuple(
            fmean(t.records[s].covered_cells for t in batch)
            for s in range(cfg.steps)
        )
        summaries.append(
            VariationSummary(
                algorithm=cfg.algorithm,
                k=cfg.k,
                n_agents=cfg.n_agents,
                data_rate_mbps=cfg.data_rate_mbps,
                trials=cfg.trials,
                mean_peak_coverage=fmean(peaks),
                std_peak_coverage=pstdev(peaks),
                mean_step_time_s=fmean(times),
                std_step_time_s=pstdev(times),
                mean_coverage_by_step=by_step,
            )
        )
    return traces, summaries


TRACE_HEADER = ("trial", "algorithm", "k", *(f.name for f in fields(StepRecord)))
_record_values = attrgetter(*TRACE_HEADER[3:])


def trace_rows(traces: Sequence[MissionTrace]) -> Iterator[list]:
    """Flat CSV rows (without header) for a batch of mission traces."""
    for t in traces:
        for rec in t.records:
            yield [t.trial, t.algorithm, t.k, *_record_values(rec)]
