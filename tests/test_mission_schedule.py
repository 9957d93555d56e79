"""Differential test: missions that fix the sg and dfs-sg schedule once, against the per-step loop.

run_mission used to call run_sg or run_dfs_sg at every step, rebuilding the
decision order, the relay count and the event list each time, although they
follow from the mission's order, relay mesh and start alone. It now builds
them once, before step 1, and each step only picks. The old function is
kept here verbatim as the reference, as per_step_mission. Both must give the
same MissionTrace, and the same CoordinationOutcome at every step, which
decision_time sees.
"""

import math
import random
import sys
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshcoord import scenario, timing
from meshcoord.coordination import (
    run_dfs_sg,
    run_dsm,
    run_rag,
    run_random_baseline,
    run_sg,
)
from meshcoord.instances import MOVES, _clip_move
from meshcoord.objective import _UnionMaskObjective, rect_mask
from meshcoord.scenario import MissionConfig, MissionTrace, StepRecord, _build_world, _spawn, _World, run_mission
from meshcoord.timing import decision_time
from meshcoord.topology import InfoDag, knn_graph, strongly_connected_line_plus

# --- the replaced code, verbatim ----------------------------------------------


def per_step_mission(cfg: MissionConfig, trial: int = 0, *, _world: _World | None = None) -> MissionTrace:
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
    # sg/dsm, one relay mesh and start for dfs-sg
    order = list(range(n))
    rng_alg.shuffle(order)
    dfs_graph = None
    dfs_start = 0
    if cfg.algorithm == "dfs-sg":
        max_extra = n * (n - 1) // 2 - (n - 1)
        dfs_graph = strongly_connected_line_plus(
            n, min(2 * n, max_extra), seed=rng_alg.randrange(2**32)
        )
        dfs_start = rng_alg.randrange(n)

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
        elif cfg.algorithm == "sg":
            outcome = run_sg(obj, order)
        elif cfg.algorithm == "dfs-sg":
            outcome = run_dfs_sg(obj, dfs_graph, dfs_start)
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


# --- the comparison -------------------------------------------------------------


def _outcomes_and_trace(mission, module, cfg, trial):
    """mission's trace of cfg, with the outcome of every step, as module's decision_time sees it."""
    outcomes = []

    def seen(outcome, dm):
        outcomes.append(outcome)
        return timing.decision_time(outcome, dm)

    with mock.patch.object(module, "decision_time", seen):
        trace = mission(cfg, trial)
    return outcomes, trace


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(["sg", "dfs-sg"]),
    n_agents=st.integers(2, 9),
    side=st.integers(4, 16),
    steps=st.integers(0, 5),
    seed=st.integers(0, 2**16),
    trial=st.integers(0, 3),
)
@example(algorithm="dfs-sg", n_agents=2, side=4, steps=3, seed=0, trial=0)
@example(algorithm="sg", n_agents=9, side=16, steps=5, seed=1, trial=2)
def test_a_schedule_fixed_once_matches_the_per_step_rules(algorithm, n_agents, side, steps, seed, trial):
    cfg = MissionConfig(
        n_agents=n_agents, world_width=side, world_height=side, steps=steps, seed=seed,
        algorithm=algorithm, comm_range=math.inf,
    )
    got = _outcomes_and_trace(run_mission, scenario, cfg, trial)
    expected = _outcomes_and_trace(per_step_mission, sys.modules[__name__], cfg, trial)
    assert got == expected
    assert len(got[0]) == steps
