import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshcoord.topology import (
    InfoDag,
    MeshGraph,
    complete_graph,
    dfs_order,
    edgeless_graph,
    from_undirected_edges,
    full_access_dag,
    is_complete,
    is_strongly_connected,
    knn_graph,
    line_graph,
    shortest_hops,
    star_graph,
    strongly_connected_line_plus,
    worst_case_cycle,
)


def test_mesh_graph_derives_out_neighbors():
    g = MeshGraph(3, [[1], [2], []])
    assert g.out_neighbors == (frozenset(), frozenset({0}), frozenset({1}))
    assert g.edge_count() == 2
    assert g.has_edges()


def test_mesh_graph_validation():
    with pytest.raises(ValueError):
        MeshGraph(0, [])
    with pytest.raises(ValueError):
        MeshGraph(2, [[0], []])  # self-loop
    with pytest.raises(ValueError):
        MeshGraph(2, [[5], []])
    with pytest.raises(ValueError):
        MeshGraph(2, [[1]])  # missing a neighborhood


@pytest.mark.parametrize(
    "in_neighbors, agent, bad",
    [
        ([[1.7], [2.9], ["0"]], 0, "1.7"),  # int() used to truncate these to edges
        ([[1], [2.0], [0]], 1, "2.0"),
        ([[1], [2], ["0"]], 2, "'0'"),
        ([[True], [2], [0]], 0, "True"),  # a bool is not an agent id
        ([[1], [2], [False]], 2, "False"),
        ([[1, None], [2], [0]], 0, "None"),
    ],
)
def test_mesh_graph_rejects_neighbor_ids_that_are_not_ints(in_neighbors, agent, bad):
    message = rf"^agent {agent} lists neighbor id {re.escape(bad)}, which is not an int$"
    with pytest.raises(ValueError, match=message):
        MeshGraph(3, in_neighbors)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_mesh_graph_rejects_an_agent_count_that_is_not_an_int(n):
    # True == 1, so it would make a one-agent graph whose n is True
    with pytest.raises(ValueError, match=rf"^the agent count n is {re.escape(repr(n))}, which is not an int$"):
        MeshGraph(n, [[]])


def test_mesh_graph_accepts_any_integer_type_as_an_id():
    class AgentId:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    g = MeshGraph(3, [iter([AgentId(1)]), (AgentId(2), 0), {1}])
    assert g == MeshGraph(3, [[1], [2, 0], [1]])
    assert all(type(j) is int for nbrs in g.in_neighbors for j in nbrs)


def test_mesh_graph_equality_and_hash():
    assert MeshGraph(2, [[1], [0]]) == MeshGraph(2, [{1}, {0}])
    assert len({MeshGraph(2, [[1], [0]]), MeshGraph(2, [[1], [0]])}) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_in_and_out_maps_are_exact_inverses(n, seed):
    rng = random.Random(seed)
    g = MeshGraph(
        n, [[j for j in range(n) if j != i and rng.random() < 0.4] for i in range(n)]
    )
    for i in range(n):
        for j in g.in_neighbors[i]:
            assert i in g.out_neighbors[j]
        for j in g.out_neighbors[i]:
            assert i in g.in_neighbors[j]


def test_knn_collinear_example():
    g = knn_graph([(0.0, 0.0), (1.0, 0.0), (10.0, 0.0)], k=1, comm_range=5.0)
    assert g.in_neighbors == (frozenset({1}), frozenset({0}), frozenset())


def test_knn_k_zero_is_fully_decentralized():
    g = knn_graph([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], k=0, comm_range=100.0)
    assert not g.has_edges()


def test_knn_full_k_unbounded_range_is_complete():
    pts = [(float(i), 0.0) for i in range(5)]
    assert is_complete(knn_graph(pts, k=4, comm_range=float("inf")))


def test_knn_distance_ties_go_to_the_lower_id():
    # agents 0 and 2 are equidistant from agent 1
    g = knn_graph([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], k=1, comm_range=10.0)
    assert g.in_neighbors[1] == frozenset({0})


def test_knn_takes_everyone_in_range_when_k_exceeds_them():
    g = knn_graph([(0.0, 0.0), (1.0, 0.0), (50.0, 0.0)], k=2, comm_range=5.0)
    assert g.in_neighbors[0] == frozenset({1})


def test_knn_rejects_negative_k():
    with pytest.raises(ValueError):
        knn_graph([(0.0, 0.0)], k=-1, comm_range=1.0)


@pytest.mark.parametrize("k", [1.5, 1.0, True, False, "1", None])
def test_knn_rejects_a_k_that_is_not_an_int_by_name(k):
    # 1.5 raised a bare TypeError from the slice after ranking, and True was taken as 1
    with pytest.raises(ValueError, match=rf"^k must be an int, got {re.escape(repr(k))}$"):
        knn_graph([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], k, 5.0)


def test_knn_takes_any_integer_type_as_k():
    class Two:
        def __index__(self):
            return 2

    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    assert knn_graph(pts, Two(), 5.0).in_neighbors == knn_graph(pts, 2, 5.0).in_neighbors


def _knn_reference(positions, k, comm_range):
    """The full sort over all other agents that the bucketed knn_graph replaces."""
    range2 = comm_range * comm_range
    ins = []
    for i, (xi, yi) in enumerate(positions):
        ranked = sorted(
            ((xj - xi) ** 2 + (yj - yi) ** 2, j)
            for j, (xj, yj) in enumerate(positions)
            if j != i
        )
        ins.append([j for d2, j in ranked if d2 <= range2][:k])
    return MeshGraph(len(positions), ins)


@st.composite
def _knn_inputs(draw):
    # lattice points give duplicates, equal distances and pairs exactly one
    # range apart; free floats give non-integer coordinates near cell edges
    step = draw(st.sampled_from([1.0, 0.5, 2.5, 0.1, 0.3]))
    offset = draw(st.sampled_from([0.0, -7.25, 1e6, -3e7]))
    lattice = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(
        lambda p: (offset + p[0] * step, offset + p[1] * step)
    )
    free = st.tuples(st.floats(-10, 10), st.floats(-10, 10))
    pts = draw(st.lists(st.one_of(lattice, free), min_size=1, max_size=30))
    comm_range = draw(
        st.one_of(
            st.integers(-2, 5).map(lambda m: m * step),
            st.floats(1e-3, 25),
            st.sampled_from([0.0, -3.0, math.inf, -math.inf, math.nan, 1e-160, 1e200]),
        )
    )
    k = draw(st.integers(0, len(pts) + 1))
    return pts, k, comm_range


@settings(max_examples=300, deadline=None)
@given(_knn_inputs())
def test_bucketed_knn_equals_the_full_sort(inputs):
    pts, k, comm_range = inputs
    assert knn_graph(pts, k, comm_range) == _knn_reference(pts, k, comm_range)


@pytest.mark.parametrize(
    "pts,comm_range",
    [
        # the true gap exceeds the range but rounds to exactly 1.0, and the
        # two points fall two unpadded cells apart
        ([(-1e-17, 0.0), (1.0, 0.0)], 1.0),
        # a subnormal squared range rounds away far more than the padding
        ([(-5e-324, 0.0), (1.00001e-160, 0.0)], 1e-160),
    ],
)
def test_knn_keeps_pairs_rounded_into_the_range(pts, comm_range):
    assert knn_graph(pts, 1, comm_range) == _knn_reference(pts, 1, comm_range) == line_graph(2)


def test_knn_rejects_non_finite_positions():
    with pytest.raises(ValueError, match="agent 1"):
        knn_graph([(0.0, 0.0), (math.nan, 0.0)], k=1, comm_range=1.0)
    with pytest.raises(ValueError, match="agent 0"):
        knn_graph([(0.0, math.inf)], k=1, comm_range=1.0)


def test_line_graph_edges():
    g = line_graph(5)
    assert g.in_neighbors == (
        frozenset({1}),
        frozenset({0, 2}),
        frozenset({1, 3}),
        frozenset({2, 4}),
        frozenset({3}),
    )
    assert not line_graph(1).has_edges()


def test_star_graph_edges():
    g = star_graph(5, center=2)
    assert g.in_neighbors[2] == frozenset({0, 1, 3, 4})
    for i in (0, 1, 3, 4):
        assert g.in_neighbors[i] == frozenset({2})
    with pytest.raises(ValueError):
        star_graph(3, center=3)


def test_complete_and_edgeless():
    assert is_complete(complete_graph(4))
    assert not is_complete(line_graph(4))
    assert not edgeless_graph(3).has_edges()
    assert is_complete(edgeless_graph(1))  # vacuously


def test_from_undirected_edges_is_symmetric():
    g = from_undirected_edges(4, [(0, 2), (2, 3)])
    assert 2 in g.in_neighbors[0] and 0 in g.in_neighbors[2]
    assert g.edge_count() == 4  # two directed arcs per undirected edge
    with pytest.raises(ValueError):
        from_undirected_edges(3, [(1, 1)])


@pytest.mark.parametrize(
    "n,extra,undirected_total", [(15, 30, 44), (45, 90, 134), (6, 0, 5)]
)
def test_line_plus_extra_edge_counts(n, extra, undirected_total):
    g = strongly_connected_line_plus(n, extra, seed=3)
    assert g.edge_count() == 2 * undirected_total
    assert is_strongly_connected(g)


def test_line_plus_is_deterministic_per_seed():
    a = strongly_connected_line_plus(10, 8, seed=5)
    b = strongly_connected_line_plus(10, 8, seed=5)
    c = strongly_connected_line_plus(10, 8, seed=6)
    assert a == b
    assert a != c


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10_000), st.data())
def test_line_plus_draws_the_same_chords_as_from_the_full_pair_list(n, seed, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if j != i + 1]
    extra = data.draw(st.integers(0, len(pairs)))
    chords = random.Random(seed).sample(pairs, extra)
    expected = from_undirected_edges(n, [(i, i + 1) for i in range(n - 1)] + chords)
    assert strongly_connected_line_plus(n, extra, seed) == expected


def test_line_plus_rejects_infeasible_extra_edges():
    # only n(n-1)/2 - (n-1) = 6 non-line pairs exist for n = 5
    with pytest.raises(ValueError):
        strongly_connected_line_plus(5, 7, seed=0)


def test_line_plus_rejects_negative_extra_edges_by_name():
    with pytest.raises(ValueError, match="extra_edges may not be negative, got -1"):
        strongly_connected_line_plus(5, -1, 0)


@pytest.mark.parametrize("n", range(3, 9))
def test_worst_case_cycle_makes_every_handoff_cost_n_minus_2(n):
    g = worst_case_cycle(n)
    assert is_strongly_connected(g)
    assert g.edge_count() == n + 1  # backward chain plus two chords
    for i in range(n - 1):
        assert shortest_hops(g, i, i + 1) == n - 2


def test_worst_case_cycle_needs_three_agents():
    with pytest.raises(ValueError):
        worst_case_cycle(2)


def test_shortest_hops_on_a_line():
    g = line_graph(6)
    assert shortest_hops(g, 0, 0) == 0
    assert shortest_hops(g, 0, 5) == 5
    assert shortest_hops(g, 4, 1) == 3


def test_shortest_hops_unreachable_is_none():
    g = MeshGraph(3, [[], [0], []])  # only 0 -> 1 exists
    assert shortest_hops(g, 0, 1) == 1
    assert shortest_hops(g, 1, 0) is None
    assert shortest_hops(g, 0, 2) is None


@pytest.mark.parametrize(
    "walk, args, message",
    [
        (shortest_hops, (-1, 0), r"src -1 is not an agent id in \[0, 3\)"),  # wrapped round to agent 2
        (shortest_hops, (0, 7), r"dst 7 is not an agent id in \[0, 3\)"),  # read as unreachable
        (shortest_hops, (7, 0), r"src 7 is not an agent id in \[0, 3\)"),  # an IndexError
        (dfs_order, (1.0,), "start is 1.0, which is not an int"),  # a TypeError
    ],
)
def test_graph_walks_reject_a_bad_agent_id_by_name(walk, args, message):
    with pytest.raises(ValueError, match=message):
        walk(line_graph(3), *args)


def test_strong_connectivity():
    assert is_strongly_connected(line_graph(4))
    assert is_strongly_connected(edgeless_graph(1))
    assert not is_strongly_connected(edgeless_graph(2))
    assert not is_strongly_connected(MeshGraph(2, [[], [0]]))


def test_dfs_order_explores_ascending_ids():
    dag = dfs_order(star_graph(5, center=1), start=1)
    assert dag.order == (1, 0, 2, 3, 4)
    dag = dfs_order(star_graph(5, center=1), start=0)
    assert dag.order == (0, 1, 2, 3, 4)
    dag = dfs_order(line_graph(4), start=2)
    assert dag.order == (2, 1, 0, 3)


def _dfs_reference(g, start):
    """The recursive preorder that the iterative dfs_order replaces."""
    order, seen = [], set()

    def visit(u):
        seen.add(u)
        order.append(u)
        for v in sorted(g.out_neighbors[u]):
            if v not in seen:
                visit(v)

    visit(start)
    return tuple(order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.integers(0, 10_000))
def test_iterative_dfs_order_equals_the_recursive_preorder(n, seed):
    rng = random.Random(seed)
    # a random directed Hamiltonian cycle keeps it strongly connected
    cycle = list(range(n))
    rng.shuffle(cycle)
    ins = [set() for _ in range(n)]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a != b:
            ins[b].add(a)
    for _ in range(rng.randrange(3 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            ins[b].add(a)
    g = MeshGraph(n, ins)
    start = rng.randrange(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * n + 200))
    try:
        expected = _dfs_reference(g, start)
    finally:
        sys.setrecursionlimit(limit)
    assert dfs_order(g, start).order == expected


def test_dfs_order_walks_paths_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 500
    assert dfs_order(line_graph(n), start=0).order == tuple(range(n))


def test_dfs_order_requires_strong_connectivity():
    with pytest.raises(ValueError, match="strongly connected"):
        dfs_order(edgeless_graph(3), start=0)
    with pytest.raises(ValueError, match=r"start 5 is not an agent id in \[0, 3\)"):
        dfs_order(line_graph(3), start=5)


def test_full_access_dag_accumulates_predecessors():
    dag = full_access_dag([2, 0, 1])
    assert dag.order == (2, 0, 1)
    assert dag.access == (frozenset(), frozenset({2}), frozenset({2, 0}))


def test_info_dag_validation():
    with pytest.raises(ValueError):
        InfoDag(order=(0, 0, 1), access=(frozenset(),) * 3)
    with pytest.raises(ValueError):
        InfoDag(order=(0, 1), access=(frozenset(),))
    with pytest.raises(ValueError):
        # position 0 cannot condition on anyone
        InfoDag(order=(0, 1), access=(frozenset({1}), frozenset()))


@pytest.mark.parametrize("order, pos, bad", [((True, False), 0, "True"), ((0, 1.0), 1, "1.0"), ((0, "1"), 1, "'1'")])
def test_info_dag_rejects_order_entries_that_are_not_ints(order, pos, bad):
    message = rf"^order position {pos} holds {re.escape(bad)}, which is not an int$"
    with pytest.raises(ValueError, match=message):
        InfoDag(order=order, access=(frozenset(),) * 2)
    with pytest.raises(ValueError, match=message):
        full_access_dag(order)


def test_info_dag_stores_any_integer_type_as_int():
    class AgentId(int):
        pass

    dag = InfoDag(order=(AgentId(1), AgentId(0)), access=(frozenset(), frozenset({1})))
    assert dag.order == (1, 0)
    assert all(type(agent) is int for agent in dag.order)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 6), st.integers(0, 500))
def test_knn_neighborhoods_respect_k_and_range(n, k, seed):
    rng = random.Random(seed)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    comm_range = rng.uniform(1.0, 8.0)
    g = knn_graph(pts, k, comm_range)
    for i in range(n):
        assert len(g.in_neighbors[i]) <= k
        for j in g.in_neighbors[i]:
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            assert dx * dx + dy * dy <= comm_range * comm_range + 1e-9


def _ranking_knn_graph(positions, k, comm_range):
    """knn_graph as it was before k = 0 skipped the ranking (verbatim)."""
    if k < 0:
        raise ValueError("k may not be negative")
    n = len(positions)
    for i, (x, y) in enumerate(positions):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"agent {i} has a non-finite position ({x!r}, {y!r})")
    range2 = comm_range * comm_range
    side = math.sqrt(range2) * (1 + 1e-9)
    extent = max((max(abs(x), abs(y)) for x, y in positions), default=0.0)
    if not (sys.float_info.min <= range2 < math.inf and extent <= 1e6 * side):
        side = math.inf
    cells = [(math.floor(x / side), math.floor(y / side)) for x, y in positions]
    buckets = {}
    for j, cell in enumerate(cells):
        buckets.setdefault(cell, []).append(j)
    ins = []
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
        ins.append([j for _, j in ranked[:k]])
    return MeshGraph(n, ins)


TOO_FAR = "are too far apart to rank: their squared distance overflows a float"


def _outcome(call):
    try:
        return call()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True)), max_size=12),
    st.integers(-1, 2),
    st.floats(allow_nan=True),
)
def test_knn_with_k_zero_skips_the_ranking_and_returns_the_same_graph(pts, k, comm_range):
    got = _outcome(lambda: knn_graph(pts, k, comm_range))
    expected = _outcome(lambda: _ranking_knn_graph(pts, k, comm_range))
    if isinstance(expected, tuple) and expected[0] == "OverflowError":
        # a squared distance past the float range overflowed while ranking;
        # with k = 0 nothing is ranked, and otherwise the pair is named
        if k == 0:
            expected = edgeless_graph(len(pts))
        else:
            i, j = map(int, re.fullmatch(r"agents (\d+) and (\d+) .*", got[1]).groups())
            (xi, yi), (xj, yj) = pts[i], pts[j]
            with pytest.raises(OverflowError):
                (xj - xi) ** 2 + (yj - yi) ** 2
            expected = ("ValueError", f"agents {i} and {j} {TOO_FAR}")
    elif k > 0 and isinstance(got, tuple) and got[1].endswith(TOO_FAR):
        # two finite squares summed past the float range: the old function
        # ranked the pair as a tie, and now the lowest such pair is named
        i, j = map(int, re.fullmatch(r"agents (\d+) and (\d+) .*", got[1]).groups())
        (xi, yi), (xj, yj) = pts[i], pts[j]
        assert (xj - xi) ** 2 + (yj - yi) ** 2 == math.inf
        expected = got
    assert got == expected
    if k == 0 and isinstance(got, MeshGraph):
        assert got == edgeless_graph(len(pts))


@pytest.mark.parametrize("comm_range", [1.0, 1e300, math.inf])
def test_knn_names_the_pair_whose_squared_distance_overflows(comm_range):
    pts = [(0.0, 0.0), (0.0, 1.0), (2e154, 0.0)]
    with pytest.raises(ValueError) as exc:
        knn_graph(pts, 1, comm_range)
    assert str(exc.value) == f"agents 0 and 2 {TOO_FAR}"
    # 1.3e154 apart still squares to a finite float
    assert knn_graph([(0.0, 0.0), (1.3e154, 0.0)], 1, math.inf).in_neighbors == (frozenset({1}), frozenset({0}))


@pytest.mark.parametrize("comm_range", [1e300, math.inf])
def test_knn_names_the_pair_whose_squared_distance_overflows_in_the_sum(comm_range):
    # each square is finite, but agent 0's squared distances to 1 and 2 sum to
    # inf, which ranked them as a tie and kept agent 1 although agent 2 is nearer
    pts = [(0.0, 0.0), (1.3e154, 1.3e154), (1.3e154, 1.2e154)]
    with pytest.raises(ValueError) as exc:
        knn_graph(pts, 1, comm_range)
    assert str(exc.value) == f"agents 0 and 1 {TOO_FAR}"
    # a finite range leaves such pairs out of the ranking
    assert knn_graph(pts, 1, 1e154).in_neighbors == (frozenset(), frozenset({2}), frozenset({1}))
