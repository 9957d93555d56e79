"""Differential test: the bitmask instance builders against the cell-set builders they replaced.

The generators used to build every footprint as a rect_footprint cell set,
carve road under a footprint whose cells all missed it, and hand the cells to
the objective, which converted them one cell at a time. Those builders are
kept here verbatim; the new ones must give the same masks, road and graph,
and leave the random generator in the same state.
"""

import random
import tracemalloc

import pytest

from cell_reference import cell_masks, full_width_masks, rect_footprint
from meshcoord.instances import (
    MOVES,
    _clip_move,
    _random_graph,
    random_coverage_instance,
    reference_line_instance,
    reference_star_instance,
    scaling_instance,
)


def old_random_coverage_instance(rng, max_agents=6, max_actions=4, min_agents=2):
    n = rng.randint(min_agents, max_agents)
    width = rng.randint(5, 9)
    height = rng.randint(5, 9)
    density = rng.uniform(0.3, 0.9)
    road = [["#" if rng.random() < density else "." for _ in range(width)] for _ in range(height)]

    positions = [(rng.randrange(width), rng.randrange(height)) for _ in range(n)]
    footprints: list[list[frozenset[tuple[int, int]]]] = []
    for pos in positions:
        menu = []
        for _ in range(rng.randint(1, max_actions)):
            cx, cy = _clip_move(pos, rng.choice(MOVES + ((0, 0),)), rng.randint(1, 2), width, height)
            cells = rect_footprint(cx, cy, 3, 3, width, height)
            if not any(road[fy][fx] == "#" for fx, fy in cells):
                road[cy][cx] = "#"  # keep every singleton value nonzero
            menu.append(cells)
        footprints.append(menu)

    mask = ["".join(row) for row in road]
    return mask, footprints, _random_graph(rng, n, positions)


def old_scaling_instance(rng, n_agents, n_actions=8, fov=3):
    side = max(8, round((n_agents * 36) ** 0.5))
    density = 0.6
    road = [["#" if rng.random() < density else "." for _ in range(side)] for _ in range(side)]
    positions = [(rng.randrange(side), rng.randrange(side)) for _ in range(n_agents)]
    footprints = []
    for pos in positions:
        menu = []
        for m in range(n_actions):
            cx, cy = _clip_move(pos, MOVES[m % len(MOVES)], rng.randint(1, 3), side, side)
            cells = rect_footprint(cx, cy, fov, fov, side, side)
            if not any(road[fy][fx] == "#" for fx, fy in cells):
                road[cy][cx] = "#"
            menu.append(cells)
        footprints.append(menu)
    mask = ["".join(row) for row in road]
    return mask, footprints, [(float(x), float(y)) for x, y in positions]


def old_nested_menus(block_start, size, n_actions):
    menu = []
    for j in range(n_actions):
        length = max(1, size - j)
        menu.append(frozenset((block_start + c, 0) for c in range(length)))
    return menu


def old_reference_instance(values, n_actions=4):
    width = sum(values)
    mask = ["#" * width]
    footprints = []
    start = 0
    for v in values:
        footprints.append(old_nested_menus(start, v, n_actions))
        start += v
    return mask, footprints


def assert_same_objective(obj, mask, footprints):
    assert obj.road_mask == tuple(mask)
    assert full_width_masks(obj) == tuple(tuple(menu) for menu in cell_masks(mask, footprints))


@pytest.mark.parametrize("kwargs", [{}, {"max_agents": 5, "max_actions": 3}])
def test_random_coverage_instance_matches_the_cell_build(kwargs):
    for seed in range(400):
        old_rng, new_rng = random.Random(seed), random.Random(seed)
        mask, footprints, old_g = old_random_coverage_instance(old_rng, **kwargs)
        obj, g = random_coverage_instance(new_rng, **kwargs)
        assert_same_objective(obj, mask, footprints)
        assert g.in_neighbors == old_g.in_neighbors
        assert new_rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"max_agents": 1}, "max_agents"),
        ({"min_agents": 1}, "min_agents"),
        ({"min_agents": 4, "max_agents": 3}, "max_agents"),
        ({"max_actions": 0}, "max_actions"),
    ],
)
def test_random_coverage_instance_rejects_bad_limits_by_name_before_drawing(kwargs, name):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        random_coverage_instance(rng, **kwargs)
    assert rng.getstate() == state


@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_scaling_instance_matches_the_cell_build(n):
    old_rng, new_rng = random.Random(n), random.Random(n)
    mask, footprints, old_positions = old_scaling_instance(old_rng, n)
    obj, positions = scaling_instance(new_rng, n)
    assert_same_objective(obj, mask, footprints)
    assert positions == old_positions
    assert new_rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize(
    "build,values",
    [(reference_line_instance, (5, 10, 4, 9, 3)), (reference_star_instance, (5, 10, 4, 3, 2))],
)
def test_reference_instances_match_the_cell_build(build, values):
    obj, _, returned = build()
    assert returned == values
    assert_same_objective(obj, *old_reference_instance(values))


def test_scaling_instance_peaks_near_what_it_keeps():
    # every footprint is clipped as it is built, so the build never holds a
    # second full set of masks next to the objective's own
    tracemalloc.start()
    try:
        result = scaling_instance(random.Random(1), 2000)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[0].n_agents == 2000
    assert peak <= 1.2 * kept, (peak, kept)


def test_scaling_instance_memory_grows_linearly():
    # the world grows with the team, so full-width masks made the retained
    # memory grow with n squared: 15x from n = 1000 to 4000
    kept = {}
    for n in (1000, 4000):
        tracemalloc.start()
        try:
            result = scaling_instance(random.Random(1), n)
            kept[n] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result[0].n_agents == n
        del result
    assert kept[4000] <= 6 * kept[1000], kept
