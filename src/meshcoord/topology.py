"""Directed communication graphs, named generators, and path metrics.

N_i here is always the in-neighborhood: the agents whose broadcasts agent i
receives. Selections travel the other way, to out-neighbors. Graphs may be
directed and disconnected; the undirected generators emit symmetric edges.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence


class MeshGraph:
    """Immutable directed graph over agents 0..n-1 with in/out neighbor maps."""

    def __init__(self, n: int, in_neighbors: Sequence[Iterable[int]]):
        n = _int_value(n, "the agent count n is")
        if n < 1:
            raise ValueError("graph needs at least one agent")
        if len(in_neighbors) != n:
            raise ValueError("need one in-neighborhood per agent")
        ins = []
        outs: list[set[int]] = [set() for _ in range(n)]
        agents = frozenset(range(n))
        for i, nbrs in enumerate(in_neighbors):
            ids = tuple(nbrs)
            if not set(map(type, ids)) <= {int}:  # the type check runs at C speed
                ids = [_int_value(j, f"agent {i} lists neighbor id") for j in ids]
            fs = frozenset(ids)
            if i in fs:
                raise ValueError(f"agent {i} lists itself as a neighbor")
            if not fs <= agents:
                raise ValueError(f"agent {i} lists unknown agent ids")
            ins.append(fs)
            for j in fs:
                outs[j].add(i)
        self.n = n
        self.in_neighbors: tuple[frozenset[int], ...] = tuple(ins)
        self.out_neighbors: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in outs)

    def edge_count(self) -> int:
        return sum(len(s) for s in self.in_neighbors)

    def has_edges(self) -> bool:
        return any(self.in_neighbors)

    def __eq__(self, other) -> bool:
        return isinstance(other, MeshGraph) and self.in_neighbors == other.in_neighbors

    def __hash__(self) -> int:
        return hash(self.in_neighbors)

    def __repr__(self) -> str:
        return f"MeshGraph(n={self.n}, edges={self.edge_count()})"


def _int_value(j, where: str) -> int:
    """j as an int, for an id or a count: any integer type but bool, or ValueError naming where j sits."""
    if not isinstance(j, bool):
        try:
            return operator.index(j)
        except TypeError:
            pass
    raise ValueError(f"{where} {j!r}, which is not an int")


@dataclass(frozen=True)
class InfoDag:
    """A decision order plus, per position, the earlier agents it may condition on.

    order entries are any integer type but bool, stored as int.
    """

    order: tuple[int, ...]
    access: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not set(map(type, self.order)) <= {int}:  # the type check runs at C speed
            order = tuple(_int_value(a, f"order position {pos} holds") for pos, a in enumerate(self.order))
            object.__setattr__(self, "order", order)
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        if len(self.access) != n:
            raise ValueError("need one access set per position")
        seen: set[int] = set()
        for pos, agent in enumerate(self.order):
            if not self.access[pos] <= seen:
                raise ValueError(f"access at position {pos} references non-predecessors")
            seen.add(agent)


def full_access_dag(order: Sequence[int]) -> InfoDag:
    """InfoDag in which every agent conditions on all of its predecessors."""
    order = tuple(order)
    access = []
    seen: set[int] = set()
    for agent in order:
        access.append(frozenset(seen))
        seen.add(agent)
    return InfoDag(order=order, access=tuple(access))


def knn_graph(positions: Sequence[tuple[float, float]], k: int, comm_range: float) -> MeshGraph:
    """Each agent receives from its k nearest others within comm_range.

    Fewer than k in range means it takes everyone in range. Distance ties are
    broken toward the lower agent id. k is any integer type but bool.

    Agents are bucketed into square cells of side |comm_range|, so only the
    3x3 block of cells around an agent is ranked. The side is padded by a
    relative 1e-9, which absorbs the rounding of the distance test as long
    as no coordinate lies more than 10^6 ranges from the origin. Beyond
    that, or when comm_range squared is not a positive normal float (a zero,
    infinite, NaN or underflowing range), every agent shares one cell. Two
    ranked agents whose squared distance overflows a float raise ValueError.
    """
    if isinstance(k, bool) or not hasattr(type(k), "__index__"):
        raise ValueError(f"k must be an int, got {k!r}")
    k = operator.index(k)
    if k < 0:
        raise ValueError("k may not be negative")
    n = len(positions)
    for i, (x, y) in enumerate(positions):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"agent {i} has a non-finite position ({x!r}, {y!r})")
    if k == 0:  # nobody is kept, so nobody is ranked
        return edgeless_graph(n)
    range2 = comm_range * comm_range
    side = math.sqrt(range2) * (1 + 1e-9)
    extent = max((max(abs(x), abs(y)) for x, y in positions), default=0.0)
    if not (sys.float_info.min <= range2 < math.inf and extent <= 1e6 * side):
        side = math.inf
    cells = [(math.floor(x / side), math.floor(y / side)) for x, y in positions]
    buckets: dict[tuple[int, int], list[int]] = {}
    for j, cell in enumerate(cells):
        buckets.setdefault(cell, []).append(j)
    ins = []
    try:
        for i, (xi, yi) in enumerate(positions):
            cx, cy = cells[i]
            ranked = []
            for bx in (cx - 1, cx, cx + 1):
                for by in (cy - 1, cy, cy + 1):
                    for j in buckets.get((bx, by), ()):
                        xj, yj = positions[j]
                        d2 = (xj - xi) ** 2 + (yj - yi) ** 2
                        if d2 <= range2 and j != i:
                            ranked.append((d2, j))
            ranked.sort()
            if ranked and ranked[-1][0] == math.inf:  # two finite squares summed past the float range
                j = next(j for d2, j in ranked if d2 == math.inf)
                raise OverflowError
            ins.append([j for _, j in ranked[:k]])
    except OverflowError:  # raised by ** 2, kept over x * x, which rounds some squares differently
        raise ValueError(
            f"agents {i} and {j} are too far apart to rank: their squared distance overflows a float"
        ) from None
    return MeshGraph(n, ins)


def line_graph(n: int) -> MeshGraph:
    """Undirected path 0-1-...-(n-1)."""
    return from_undirected_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int, center: int) -> MeshGraph:
    """Undirected star: center adjacent to every other agent."""
    if not 0 <= center < n:
        raise ValueError("center must be a valid agent id")
    return from_undirected_edges(n, [(center, i) for i in range(n) if i != center])


def complete_graph(n: int) -> MeshGraph:
    return MeshGraph(n, [[j for j in range(n) if j != i] for i in range(n)])


def edgeless_graph(n: int) -> MeshGraph:
    return MeshGraph(n, [[] for _ in range(n)])


def is_complete(g: MeshGraph) -> bool:
    return all(len(s) == g.n - 1 for s in g.in_neighbors)


def from_undirected_edges(n: int, edges: Iterable[tuple[int, int]]) -> MeshGraph:
    ins: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops are not allowed")
        ins[u].add(v)
        ins[v].add(u)
    return MeshGraph(n, ins)


def strongly_connected_line_plus(n: int, extra_edges: int, seed: int) -> MeshGraph:
    """The undirected line plus extra distinct random undirected edges.

    Strongly connected for every seed because the line alone already is.
    """
    if n < 2:
        raise ValueError("need at least two agents for a line")
    if extra_edges < 0:
        raise ValueError(f"extra_edges may not be negative, got {extra_edges}")
    # the non-line pairs (i, j), i + 1 < j, in lexicographic order: row i holds
    # (i, i+2) .. (i, n-1) and starts[i] is the index of its first pair
    starts = list(accumulate((n - 2 - i for i in range(n - 2)), initial=0))
    if extra_edges > starts[-1]:
        raise ValueError(
            f"cannot add {extra_edges} extra edges; only {starts[-1]} non-line pairs exist"
        )
    # sampling indices draws exactly what sampling the list of pairs would,
    # without building that O(n^2) list
    chosen = []
    for index in random.Random(seed).sample(range(starts[-1]), extra_edges):
        i = bisect_right(starts, index) - 1
        chosen.append((i, i + 2 + index - starts[i]))
    return from_undirected_edges(n, [(i, i + 1) for i in range(n - 1)] + chosen)


def worst_case_cycle(n: int) -> MeshGraph:
    """Directed graph in which every hand-off i -> i+1 costs n-2 hops.

    A backward chain i -> i-1 plus two chords (0 -> n-2 and 1 -> n-1): the
    shortest directed path from any agent i to i+1 then traverses exactly
    n-2 edges, which makes sequential hand-offs in ascending agent order as
    expensive as possible. Strongly connected for every n >= 3.
    """
    if n < 3:
        raise ValueError("worst-case cycle needs at least 3 agents")
    ins: list[set[int]] = [set() for _ in range(n)]
    for i in range(1, n):
        ins[i - 1].add(i)  # edge i -> i-1
    ins[n - 2].add(0)  # edge 0 -> n-2
    ins[n - 1].add(1)  # edge 1 -> n-1
    return MeshGraph(n, ins)


def shortest_hops(g: MeshGraph, src: int, dst: int) -> int | None:
    """Directed BFS hop count from src to dst; None when unreachable."""
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in g.out_neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                if v == dst:
                    return dist[v]
                queue.append(v)
    return None


def is_strongly_connected(g: MeshGraph) -> bool:
    if g.n == 1:
        return True

    def reaches_all(neighbors) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == g.n

    return reaches_all(g.out_neighbors) and reaches_all(g.in_neighbors)


def dfs_order(g: MeshGraph, start: int) -> InfoDag:
    """Depth-first preorder along out-edges, exploring neighbors in ascending id.

    Requires strong connectivity (so the traversal reaches everyone and any
    relayed hand-off has a directed path). Every agent conditions on all of
    its predecessors in the resulting order.
    """
    if not 0 <= start < g.n:
        raise ValueError("start must be a valid agent id")
    if not is_strongly_connected(g):
        raise ValueError("graph is not strongly connected")
    order = [start]
    seen = {start}
    # one iterator over the unexplored out-neighbors of each agent on the path
    stack = [iter(sorted(g.out_neighbors[start]))]
    while stack:
        for v in stack[-1]:
            if v not in seen:
                seen.add(v)
                order.append(v)
                stack.append(iter(sorted(g.out_neighbors[v])))
                break
        else:
            stack.pop()
    return full_access_dag(order)
