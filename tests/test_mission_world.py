"""Differential test: run_mission's bitmask world against the per-step rebuild it replaced.

The reference below rebuilds the world every step the way run_mission used
to: road-mask strings with covered cells blanked out, rect_footprint cell
sets per candidate destination, and a fresh GridCoverageObjective built from
those cells one at a time, without the mask code. Both must give the same
MissionTrace for every rule, down to the evaluation counts and the random
draws.
"""

import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cell_reference import cell_masks, rect_footprint
from meshcoord.coordination import run_dfs_sg, run_dsm, run_rag, run_random_baseline, run_sg
from meshcoord.instances import MOVES
from meshcoord.objective import GridCoverageObjective
from meshcoord.scenario import (
    ALGORITHMS,
    MissionConfig,
    MissionTrace,
    StepRecord,
    _load_world,
    _spawn,
    run_mission,
)
from meshcoord.topology import InfoDag, knn_graph, strongly_connected_line_plus


def reference_mission(cfg: MissionConfig, trial: int) -> MissionTrace:
    rng_world = random.Random(f"{cfg.seed}:{trial}:world")
    rng_alg = random.Random(f"{cfg.seed}:{trial}:alg:{cfg.algorithm}:{cfg.k}")
    mask = _load_world(cfg, rng_world)
    height = len(mask)
    width = len(mask[0])
    if cfg.fov_width > width or cfg.fov_height > height:
        raise ValueError("fov_width/fov_height must fit inside the world")
    road_cells = frozenset(
        (x, y) for y, row in enumerate(mask) for x, ch in enumerate(row) if ch == "#"
    )
    positions = _spawn(cfg, rng_world, width, height)
    initial = tuple(positions)
    n = cfg.n_agents
    dm = cfg.delay_model()
    counts = [len(MOVES)] * n  # every menu is the 8 moves

    order = list(range(n))
    rng_alg.shuffle(order)
    dfs_graph = None
    dfs_start = 0
    if cfg.algorithm == "dfs-sg":
        if n == 1:
            raise ValueError("dfs-sg needs at least 2 agents")
        max_extra = n * (n - 1) // 2 - (n - 1)
        dfs_graph = strongly_connected_line_plus(
            n, min(2 * n, max_extra), seed=rng_alg.randrange(2**32)
        )
        dfs_start = rng_alg.randrange(n)

    def destination(pos, move):
        dx, dy = MOVES[move]
        x = min(width - 1, max(0, pos[0] + dx * cfg.move_magnitude))
        y = min(height - 1, max(0, pos[1] + dy * cfg.move_magnitude))
        return x, y

    covered: set[tuple[int, int]] = set()
    records = []
    for step in range(1, cfg.steps + 1):
        rows = [
            "".join(
                "#" if (x, y) in road_cells and (x, y) not in covered else "."
                for x in range(width)
            )
            for y in range(height)
        ]
        dests = [[destination(positions[i], m) for m in range(len(MOVES))] for i in range(n)]
        footprints = [
            [rect_footprint(dx, dy, cfg.fov_width, cfg.fov_height, width, height) for dx, dy in d]
            for d in dests
        ]
        obj = GridCoverageObjective(rows, cell_masks(rows, footprints))

        pts = [(float(x), float(y)) for x, y in positions]
        # simulated time from the action counts, independently of eval_counts
        if cfg.algorithm == "rag":
            outcome = run_rag(obj, knn_graph(pts, cfg.k, cfg.comm_range))
            recomputations = [0] * n
            for ev in outcome.events:
                for i in ev.recomputed:
                    recomputations[i] += 1
            busiest = max(r * c for r, c in zip(recomputations, counts))
            sim_time = (dm.tau_f * busiest + dm.tau_hash * outcome.gain_rounds
                        + dm.tau_c * outcome.action_rounds)
        elif cfg.algorithm in ("sg", "dfs-sg"):
            if cfg.algorithm == "sg":
                outcome = run_sg(obj, order)
            else:
                outcome = run_dfs_sg(obj, dfs_graph, dfs_start)
            sim_time = dm.tau_f * sum(counts) + dm.tau_c * outcome.relay_action_transmissions
        elif cfg.algorithm == "dsm":
            g = knn_graph(pts, cfg.k, cfg.comm_range)
            seen: set[int] = set()
            access = []
            for agent in order:
                access.append(frozenset(seen & g.in_neighbors[agent]))
                seen.add(agent)
            outcome = run_dsm(obj, InfoDag(order=tuple(order), access=tuple(access)))
            sim_time = dm.tau_f * sum(counts)
        else:
            outcome = run_random_baseline(obj, rng_alg)
            sim_time = 0.0

        for i, e in enumerate(outcome.actions):
            dest = dests[i][e.action]
            positions[i] = dest
            covered.update(
                c
                for c in rect_footprint(dest[0], dest[1], cfg.fov_width, cfg.fov_height, width, height)
                if c in road_cells
            )
        records.append(
            StepRecord(
                step=step,
                covered_cells=len(covered),
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
        road_cell_count=len(road_cells),
        initial_positions=initial,
        records=tuple(records),
    )


def _result(fn, cfg, trial, **changes):
    """fn's trace of cfg with changes, or the ValueError that building or running it raised."""
    try:
        return fn(replace(cfg, **changes), trial)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def worlds(draw):
    """(config, mask rows or None): a generated world, or a mask file of its own size."""
    width = draw(st.integers(1, 9))
    height = draw(st.integers(1, 9))
    cfg = MissionConfig(
        n_agents=draw(st.integers(1, 5)),
        world_width=width,
        world_height=height,
        road_density=draw(st.sampled_from([0.3, 0.6, 1.0]) | st.floats(0.05, 1.0)),
        corridor_width=draw(st.integers(1, 3)),
        fov_width=draw(st.integers(1, width)),
        fov_height=draw(st.integers(1, height)),
        move_magnitude=draw(st.integers(1, 12)),
        steps=draw(st.integers(0, 4)),
        comm_range=draw(st.sampled_from([1.5, 4.0, math.inf])),
        k=draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 2**16)),
        spawn_width=draw(st.none() | st.integers(1, width)),
        spawn_height=draw(st.none() | st.integers(1, height)),
    )
    mask = None
    if draw(st.booleans()):
        mw = draw(st.integers(1, 9))
        mh = draw(st.integers(1, 9).filter(lambda h: h != mw))
        row = st.text(alphabet="#.", min_size=mw, max_size=mw)
        mask = draw(st.lists(row, min_size=mh, max_size=mh))
    return cfg, mask


@settings(max_examples=60, deadline=None)
@given(world=worlds(), trial=st.integers(0, 3))
# a field of view as large as the world
@example(world=(MissionConfig(n_agents=3, world_width=5, world_height=4, fov_width=5,
                              fov_height=4, steps=3, seed=1), None), trial=0)
# even fields of view, and moves longer than the world clip at all four edges
@example(world=(MissionConfig(n_agents=4, world_width=7, world_height=6, fov_width=2,
                              fov_height=4, move_magnitude=20, steps=4, seed=2), None), trial=1)
# every cell is road, and a mission of no steps
@example(world=(MissionConfig(n_agents=3, world_width=6, world_height=6, road_density=1.0,
                              steps=3, seed=3), None), trial=0)
@example(world=(MissionConfig(n_agents=3, steps=0, seed=4), None), trial=2)
# a mask file world with width != height
@example(world=(MissionConfig(n_agents=3, fov_width=2, fov_height=3, move_magnitude=3,
                              steps=4, seed=5),
                ["#######", "#..#..#", "...####"]), trial=0)
def test_mask_world_matches_the_per_step_rebuild(world, trial):
    cfg, mask = world
    with tempfile.TemporaryDirectory() as tmp:
        changes = {}
        if mask is not None:
            path = Path(tmp) / "roads.txt"
            path.write_text("\n".join(mask) + "\n")
            changes["road_mask_path"] = str(path)
        for algorithm in ALGORITHMS:
            changes["algorithm"] = algorithm
            assert _result(run_mission, cfg, trial, **changes) == _result(
                reference_mission, cfg, trial, **changes
            )
