"""Differential tests: monte_carlo's shared worlds against a fresh world per mission.

monte_carlo builds each (seed, trial) world once per batch and lends it, with
its footprint caches, to every mission that draws it. The reference runs each
mission alone through run_mission, which builds its own world, so both must
give the same traces for any sweep and any worker count.
"""

import concurrent.futures
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshcoord import scenario
from meshcoord.scenario import ALGORITHMS, MissionConfig, _batches, _world_key, monte_carlo, run_mission

MASK_PATH = "<mask>"  # replaced by the path of the drawn mask file


class SerialPool:
    """A ProcessPoolExecutor stand-in that runs the tasks in this process and notes its size."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def serial_pool(monkeypatch):
    started = []
    monkeypatch.setattr(SerialPool, "started", started)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started


@st.composite
def world_fields(draw):
    width, height = draw(st.integers(3, 10)), draw(st.integers(3, 10))
    return dict(
        world_width=width,
        world_height=height,
        road_density=draw(st.sampled_from([0.3, 0.6, 1.0])),
        corridor_width=draw(st.integers(1, 2)),
        road_mask_path=draw(st.sampled_from([None, MASK_PATH])),
        fov_width=draw(st.integers(1, 3)),
        fov_height=draw(st.integers(1, 3)),
        move_magnitude=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2)),
    )


@st.composite
def sweeps(draw):
    """A mask and variations that share some worlds and differ in others."""
    mask_width, mask_height = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    row = st.text(alphabet="#.", min_size=mask_width, max_size=mask_width)
    mask = draw(st.lists(row, min_size=mask_height, max_size=mask_height))
    # each variation's world is the base, or the base with one field changed,
    # so that a key missing a field would lend one world to missions that differ in it
    base = draw(world_fields())
    variations = []
    for _ in range(draw(st.integers(1, 5))):
        world, other = dict(base), draw(world_fields())
        changed = sorted(name for name in other if other[name] != base[name])
        if changed and draw(st.booleans()):
            name = draw(st.sampled_from(changed))
            world[name] = other[name]
        algorithm = draw(st.sampled_from(ALGORITHMS))
        variations.append(dict(
            world,
            algorithm=algorithm,
            k=draw(st.integers(0, 3)),
            n_agents=draw(st.integers(2 if algorithm == "dfs-sg" else 1, 4)),
            spawn_width=draw(st.sampled_from([None, 1, 2, 4])),
            spawn_height=draw(st.sampled_from([None, 1, 3])),
            steps=draw(st.integers(1, 3)),
            trials=draw(st.integers(1, 3)),
        ))
    return mask, variations


def _configs(mask, variations, tmp):
    path = Path(tmp) / "roads.txt"
    path.write_text("\n".join(mask) + "\n")
    return [
        MissionConfig(**dict(v, road_mask_path=str(path) if v["road_mask_path"] else None))
        for v in variations
    ]


@settings(max_examples=150, deadline=None)
@given(sweep=sweeps(), workers=st.integers(1, 5))
def test_shared_worlds_match_a_fresh_world_per_mission(sweep, workers):
    started = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        concurrent.futures, "ProcessPoolExecutor", SerialPool
    ), mock.patch.object(SerialPool, "started", started):
        cfgs = _configs(*sweep, tmp)
        expected = [run_mission(cfg, trial) for cfg in cfgs for trial in range(cfg.trials)]
        serial = monte_carlo(cfgs)
        assert serial[0] == expected
        assert monte_carlo(cfgs, workers=workers) == serial
    # the batches are split until every worker has one
    size = min(workers, len(expected))
    assert started == ([size] if size > 1 else [])


@settings(max_examples=40, deadline=None)
@given(sweep=sweeps(), workers=st.integers(1, 5))
def test_batches_are_one_world_each_and_trial_major(sweep, workers):
    with tempfile.TemporaryDirectory() as tmp:
        cfgs = _configs(*sweep, tmp)
    missions = sum(cfg.trials for cfg in cfgs)
    batches = _batches(cfgs, min(workers, missions))
    assert sorted(m for batch in batches for m in batch) == sorted(
        (v, trial) for v, cfg in enumerate(cfgs) for trial in range(cfg.trials)
    )
    assert len(batches) >= min(workers, missions)
    keys = []
    for batch in batches:
        (key,) = {_world_key(cfgs[v], trial) for v, trial in batch}
        keys.append(key)
    trials = [key[0] for key in keys]
    assert trials == sorted(trials)
    # a world's parts are contiguous, and a serial run has one batch per world
    runs = [key for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    assert len(runs) == len(set(keys))
    if workers == 1:
        assert len(batches) == len(runs)


@pytest.mark.parametrize(
    "name, value",
    [
        ("seed", 1),
        ("world_width", 9),
        ("world_height", 11),
        ("road_density", 0.8),
        ("corridor_width", 1),
        ("road_mask_path", MASK_PATH),
        ("fov_width", 2),
        ("fov_height", 1),
        ("move_magnitude", 1),
    ],
)
def test_missions_that_differ_in_a_world_field_do_not_share_a_world(tmp_path, name, value):
    base = dict(n_agents=4, world_width=10, world_height=10, road_mask_path=None, steps=3, trials=2)
    mask = ["#.##.#####", "##########", "#..#.##..#", "####.#####", "..##.###.#", "##########"]
    cfgs = _configs(mask, [base, dict(base, **{name: value}), base], tmp_path)
    assert _world_key(cfgs[0], 0) != _world_key(cfgs[1], 0)
    expected = [run_mission(cfg, trial) for cfg in cfgs for trial in range(cfg.trials)]
    assert monte_carlo(cfgs)[0] == expected


def test_a_world_is_loaded_once_per_batch(monkeypatch, serial_pool):
    loads = []
    load = scenario._load_world
    monkeypatch.setattr(scenario, "_load_world", lambda cfg, rng: loads.append(cfg) or load(cfg, rng))
    base = MissionConfig(n_agents=3, world_width=10, world_height=10, steps=2, trials=2)
    variations = [
        replace(base, algorithm="rag", k=0),
        replace(base, algorithm="sg", n_agents=4, spawn_width=2),
        replace(base, algorithm="random", fov_width=2),  # another field of view is another world
    ]
    monte_carlo(variations)
    assert len(loads) == 4  # two worlds in each of two trials
    loads.clear()
    monte_carlo(variations, workers=5)  # four worlds, split into five or more batches
    assert len(loads) == len(_batches(variations, 5)) >= 5
    assert serial_pool == [5]


def test_a_one_trial_sweep_still_fills_the_pool(serial_pool):
    base = MissionConfig(n_agents=3, world_width=10, world_height=10, steps=2, trials=1)
    variations = [replace(base, algorithm=alg) for alg in ALGORITHMS]  # one world
    assert monte_carlo(variations, workers=2) == monte_carlo(variations)
    assert serial_pool == [2]
