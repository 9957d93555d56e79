"""Seeded random and reference instances for certification runs and tests.

Everything here is deterministic in the supplied random.Random. Coverage
instances guarantee a nonzero value for every singleton action (the structural
measures are undefined otherwise) by carving road under any footprint that
would miss it.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence

from meshcoord.objective import (
    CallableObjective,
    GridCoverageObjective,
    GroundElement,
    _box_windows,
)
from meshcoord.topology import (
    MeshGraph,
    complete_graph,
    edgeless_graph,
    knn_graph,
    line_graph,
    star_graph,
)

# the 8 cardinal/diagonal unit displacements; a mission agent's action menu
# is these at the configured magnitude, so |V_i| = 8 throughout a mission
MOVES = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)


def _clip_move(
    pos: tuple[int, int], move: tuple[int, int], step: int, width: int, height: int
) -> tuple[int, int]:
    """pos moved step cells along the (dx, dy) move, clipped to the width x height world."""
    x, y = pos[0] + move[0] * step, pos[1] + move[1] * step
    return (0 if x < 0 else width - 1 if x >= width else x, 0 if y < 0 else height - 1 if y >= height else y)


def random_coverage_instance(
    rng: random.Random,
    max_agents: int = 6,
    max_actions: int = 4,
    min_agents: int = 2,
) -> tuple[GridCoverageObjective, MeshGraph]:
    """A small grid-coverage objective plus a random communication graph.

    Agents sit at random cells of a random-density road map; each action is a
    3x3 field of view displaced by a random move. Graphs are drawn from the
    named generators, k-nearest-neighbor configurations, and sparse random
    digraphs, so connected, disconnected, directed, and empty topologies all
    occur.
    """
    if min_agents < 2:  # the kNN graphs draw k from 1 .. n - 1
        raise ValueError(f"min_agents must be at least 2, got {min_agents}")
    if max_agents < min_agents:
        raise ValueError(f"max_agents must be at least min_agents ({min_agents}), got {max_agents}")
    if max_actions < 1:
        raise ValueError(f"max_actions must be at least 1, got {max_actions}")
    n = rng.randint(min_agents, max_agents)
    width = rng.randint(5, 9)
    height = rng.randint(5, 9)
    density = rng.uniform(0.3, 0.9)
    road = _random_rows(rng, width, height, density)

    positions = [(rng.randrange(width), rng.randrange(height)) for _ in range(n)]
    centers = [
        [
            _clip_move(pos, rng.choice(MOVES + ((0, 0),)), rng.randint(1, 2), width, height)
            for _ in range(rng.randint(1, max_actions))
        ]
        for pos in positions
    ]
    return _carved_objective(road, lambda: centers, 3), _random_graph(rng, n, positions)


def _random_rows(rng: random.Random, width: int, height: int, density: float) -> list[str]:
    """A road mask with each cell road with probability density, drawn row by row."""
    return ["".join(["#" if rng.random() < density else "." for _ in range(width)]) for _ in range(height)]


def _carved_objective(
    road: list[str], centers: Callable[[], Iterable[Iterable[tuple[int, int]]]], fov: int
) -> GridCoverageObjective:
    """Square fov x fov footprints at the centers, over road carved where one would miss it.

    Agent by agent and action by action, a footprint that covers no road
    (counting earlier carves) gets its center cell carved into road, so every
    singleton value is nonzero. road is a list of rows of '#' and '.' and is
    carved in place; centers must lie on the grid. centers() yields each
    agent's action centers and is called twice. The first pass makes the
    carve decisions from the road rows, a slice of each row the footprint
    spans. The second builds each footprint as (window index, window) pairs
    straight from its center (_box_windows), and the objective clips them to
    the carved road window by window as they arrive. No footprint is ever an
    int wider than one window, and neither every mask nor every center is
    held at once, which would raise the peak memory of a large instance well
    above what the objective keeps.
    """
    height, width = len(road), len(road[0])
    half = fov // 2
    for menu in centers():
        for cx, cy in menu:
            x0, x1 = max(0, cx - half), cx - half + fov
            for row in road[max(0, cy - half):cy - half + fov]:
                if "#" in row[x0:x1]:
                    break
            else:
                road[cy] = road[cy][:cx] + "#" + road[cy][cx + 1:]
    return GridCoverageObjective(
        road,
        ((_box_windows(cx, cy, fov, width, height) for cx, cy in menu) for menu in centers()),
        _windowed=True,
    )


def _random_graph(rng: random.Random, n: int, positions: Sequence[tuple[int, int]]) -> MeshGraph:
    kind = rng.randrange(6)
    if kind == 0:
        return edgeless_graph(n)
    if kind == 1:
        return complete_graph(n)
    if kind == 2:
        return line_graph(n)
    if kind == 3:
        return star_graph(n, rng.randrange(n))
    if kind == 4:
        pts = [(float(x), float(y)) for x, y in positions]
        return knn_graph(pts, rng.randint(1, n - 1), comm_range=rng.uniform(2.0, 12.0))
    ins = [
        [j for j in range(n) if j != i and rng.random() < 0.4]
        for i in range(n)
    ]
    return MeshGraph(n, ins)


def _nested_menus(block_start: int, size: int) -> list[int]:
    """Four action masks over one row-block: the full block, then shrinking prefixes.

    Within-agent footprints nest (so the argmax is unique) while staying
    inside the agent's own block, which keeps cross-agent footprints disjoint.
    """
    return [((1 << max(1, size - j)) - 1) << block_start for j in range(4)]


def reference_line_instance() -> tuple[GridCoverageObjective, MeshGraph, tuple[int, ...]]:
    """Five agents on a line with singleton values (5, 10, 4, 9, 3), four actions each.

    Agents 1 and 3 (0-indexed) hold the local maxima, so the first round
    commits exactly {1, 3} and the second commits {0, 2, 4}: two compute
    phases, one scalar round, one action round. Footprints are disjoint
    across agents, so every value is also the true marginal gain throughout.
    Returns (objective, graph, singleton_values).
    """
    return _reference_instance((5, 10, 4, 9, 3), line_graph(5))


def reference_star_instance() -> tuple[GridCoverageObjective, MeshGraph, tuple[int, ...]]:
    """Five agents on a star centered at agent 1, whose value dominates; four actions each.

    Round one commits the center alone; round two commits every spoke.
    Returns (objective, graph, singleton_values).
    """
    return _reference_instance((5, 10, 4, 3, 2), star_graph(5, center=1))


def _reference_instance(
    values: Sequence[int], g: MeshGraph
) -> tuple[GridCoverageObjective, MeshGraph, tuple[int, ...]]:
    starts = [sum(values[:i]) for i in range(len(values))]
    footprints = [_nested_menus(start, v) for start, v in zip(starts, values)]
    obj = GridCoverageObjective(["#" * sum(values)], footprints)
    return obj, g, tuple(values)


def modular_objective(action_counts: Sequence[int]) -> CallableObjective:
    """f(A) = |A|: the zero-curvature regime."""
    return CallableObjective(action_counts, lambda sel: float(len(sel)))


def supermodular_toy(n_agents: int = 3) -> CallableObjective:
    """f(A) = |A|^2: monotone, strictly supermodular; one action per agent."""
    return CallableObjective([1] * n_agents, lambda sel: float(len(sel) ** 2))


def logdet_toy() -> CallableObjective:
    """log-det of I + sum of rank-one terms over three correlated sensors.

    A classic information-gain style objective: monotone and submodular but
    not a coverage function, useful for exercising the validators on floats.
    """
    vectors = {
        GroundElement(0, 0): (1.0, 0.2, 0.0),
        GroundElement(1, 0): (0.2, 1.0, 0.3),
        GroundElement(2, 0): (0.0, 0.3, 1.0),
    }

    def logdet(sel: frozenset) -> float:
        import math

        m = [[1.0 if r == c else 0.0 for c in range(3)] for r in range(3)]
        for e in sel:
            v = vectors[e]
            for r in range(3):
                for c in range(3):
                    m[r][c] += v[r] * v[c]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        return math.log(det)

    return CallableObjective([1, 1, 1], logdet)


def scaling_instance(
    rng: random.Random, n_agents: int
) -> tuple[GridCoverageObjective, list[tuple[float, float]]]:
    """Constant-density deployment for decision-time scaling runs.

    The arena grows with the team so neighborhood structure stays local;
    actions are the 8 unit moves at a random magnitude with a 3x3 FOV.
    Returns (objective, positions) so callers can self-configure a graph.
    n_agents must be an int of at least 1; it is checked before anything is
    drawn from rng.
    """
    if not isinstance(n_agents, int) or isinstance(n_agents, bool) or n_agents < 1:
        raise ValueError(f"n_agents must be an int of at least 1, got {n_agents!r}")
    side = max(8, round((n_agents * 36) ** 0.5))
    density = 0.6
    road = _random_rows(rng, side, side, density)
    positions = [(rng.randrange(side), rng.randrange(side)) for _ in range(n_agents)]
    steps = [bytes(rng.randint(1, 3) for _ in MOVES) for _ in positions]  # one magnitude per move

    def centers():
        return (
            (_clip_move(pos, move, step, side, side) for move, step in zip(MOVES, menu_steps))
            for pos, menu_steps in zip(positions, steps)
        )

    return _carved_objective(road, centers, 3), [(float(x), float(y)) for x, y in positions]
