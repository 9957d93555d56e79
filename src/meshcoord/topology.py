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
        outs: list[list[int]] = [[] for _ in range(n)]  # each frozen once below
        agents = frozenset(range(n))
        for i, nbrs in enumerate(in_neighbors):
            fs = frozenset(_int_values(nbrs, f"agent {i} lists neighbor id"))
            if i in fs:
                raise ValueError(f"agent {i} lists itself as a neighbor")
            if not fs <= agents:
                raise ValueError(f"agent {i} lists unknown agent ids")
            ins.append(fs)
            for j in fs:
                outs[j].append(i)
        self.n = n
        self.in_neighbors: tuple[frozenset[int], ...] = tuple(ins)
        self.out_neighbors: tuple[frozenset[int], ...] = tuple(map(frozenset, outs))

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


def _isfinite(x, name: str) -> bool:
    """math.isfinite(x), or ValueError naming x where it is past the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        raise ValueError(f"{name} is past the float range") from None


def _int_values(xs: Iterable, where: str) -> tuple[int, ...]:
    """xs as a tuple of ints, each as _int_value takes it; where may hold {} for the position."""
    xs = tuple(xs)
    if set(map(type, xs)) <= {int}:  # the type check runs at C speed
        return xs
    return tuple(_int_value(x, where.format(pos)) for pos, x in enumerate(xs))


@dataclass(frozen=True)
class InfoDag:
    """A decision order plus, per position, the earlier agents it may condition on.

    order entries are any integer type but bool, stored as int.
    """

    order: tuple[int, ...]
    access: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "order", _int_values(self.order, "order position {} holds"))
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
    ranked agents whose squared distance overflows a float raise ValueError,
    as does an int coordinate or range past the float range.
    """
    if isinstance(k, bool) or not hasattr(type(k), "__index__"):
        raise ValueError(f"k must be an int, got {k!r}")
    k = operator.index(k)
    if k < 0:
        raise ValueError("k may not be negative")
    n = len(positions)
    try:
        for i, (x, y) in enumerate(positions):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"agent {i} has a non-finite position ({x!r}, {y!r})")
    except OverflowError:
        raise ValueError(f"agent {i}'s position is past the float range") from None
    _isfinite(comm_range, "comm_range")  # an int range past the float range raises; inf and NaN pass
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


def _agent_id(g: MeshGraph, j, name: str) -> int:
    """j as an agent id of g, of any integer type but bool, or ValueError naming the argument name."""
    if not 0 <= (j := _int_value(j, f"{name} is")) < g.n:
        raise ValueError(f"{name} {j} is not an agent id in [0, {g.n})")
    return j


def _hops(neighbors: Sequence[Iterable[int]], src: int, dst: int | None = None) -> dict[int, int]:
    """Breadth-first hop counts from src to the agents it reaches along neighbors; stops once dst has one."""
    dist = {src: 0}
    queue = deque([src])
    while queue and dst not in dist:
        u = queue.popleft()
        hop = dist[u] + 1
        for v in neighbors[u]:
            if v not in dist:
                dist[v] = hop
                if v == dst:
                    break
                queue.append(v)
    return dist


def shortest_hops(g: MeshGraph, src: int, dst: int) -> int | None:
    """Directed BFS hop count from agent src to agent dst of g; None when unreachable."""
    src, dst = _agent_id(g, src, "src"), _agent_id(g, dst, "dst")
    return _hops(g.out_neighbors, src, dst).get(dst)


def is_strongly_connected(g: MeshGraph) -> bool:
    return len(_hops(g.out_neighbors, 0)) == g.n == len(_hops(g.in_neighbors, 0))


def dfs_order(g: MeshGraph, start: int) -> InfoDag:
    """Depth-first preorder along out-edges, exploring neighbors in ascending id.

    Requires strong connectivity (so the traversal reaches everyone and any
    relayed hand-off has a directed path). Every agent conditions on all of
    its predecessors in the resulting order.
    """
    start = _agent_id(g, start, "start")
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
