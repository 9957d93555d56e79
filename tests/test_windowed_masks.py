"""Differential test: windowed coverage masks against the full-width masks they replaced.

_UnionMaskObjective used to keep every mask, and every context state, as one
int as wide as the whole world. Past objective._WINDOW_BITS bits it now keeps
(window index, window) pairs and (covered count, window list) states. The
old class is kept here verbatim as the reference: values, evaluation counts,
states through repeated extends (an old state keeps its old value), the
outcomes of all five rules and whole mission traces must match. Worlds are
drawn on both sides of the window width, and the width is patched down to a
few bits so that masks straddle window boundaries in small worlds.
"""

import gc
import random
import weakref
from typing import Iterable, Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cell_reference import cell_masks, full_width_masks, rect_footprint, split, window_pairs
from meshcoord import objective, scenario
from meshcoord.coordination import TIE_BREAKS, run_dfs_sg, run_dsm, run_rag, run_random_baseline, run_sg
from meshcoord.objective import (
    DiskCoverageObjective,
    GridCoverageObjective,
    GroundElement,
    Objective,
    _box_windows,
    _clipped_pairs,
    _int_pairs,
    _split,
    _UnionMaskObjective,
    road_bits,
)
from meshcoord.scenario import ALGORITHMS, MissionConfig, run_mission
from meshcoord.topology import InfoDag, MeshGraph, strongly_connected_line_plus


class OldUnionMaskObjective(Objective):
    """An objective whose value depends only on the OR of per-element bitmasks.

    masks[i][a] is the bitmask of cells agent i's action a covers. The
    context state is the union of the selection's masks, so scoring a
    candidate against a context of any size costs one OR and one popcount.
    The value is the union's bit count times cell_area.
    """

    cell_area = 1.0

    def __init__(self, masks: Sequence[Sequence[int]]):
        super().__init__([len(per_agent) for per_agent in masks])
        self._masks = tuple(tuple(per_agent) for per_agent in masks)

    def context(self, selection: Iterable[GroundElement] = ()) -> int:
        masks = self._masks
        union = 0
        for i, a in selection:
            union |= masks[i][a]
        return union

    def extend(self, state: int, element: GroundElement) -> int:
        i, a = element
        return state | self._masks[i][a]

    def _value_in(self, state: int, extra: Iterable[GroundElement]) -> float:
        masks = self._masks
        for i, a in extra:
            state |= masks[i][a]
        return state.bit_count() * self.cell_area


def _random_masks(rng, cells, menu_sizes, window_bits):
    """Masks over about cells bits: empty, local spans across a few windows, or spread over everything."""
    masks = []
    for size in menu_sizes:
        menu = []
        for _ in range(size):
            kind = rng.randrange(4)
            if kind == 0:
                menu.append(0)
            elif kind == 3:
                menu.append(rng.getrandbits(cells + window_bits))  # may run past the world
            else:
                start = rng.randrange(cells)
                span = rng.randint(1, 3 * window_bits)
                menu.append(rng.getrandbits(span) << start)
        masks.append(menu)
    return masks


def _pair(kind, rng, cells, window_bits):
    """The same objective built the new way and the old way, and the width the new one sees."""
    menu_sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
    if kind == "disk":
        side = max(1, round(cells**0.5 / 2))
        centers = [[(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(m)] for m in menu_sizes]
        new = DiskCoverageObjective(centers, rng.uniform(0.3, 1.5), (0.0, 0.0, side, side), resolution=2)
        old = OldUnionMaskObjective([[new._disk_mask(c) for c in per_agent] for per_agent in new.centers])
        old.cell_area = new.cell_area
        return new, old, new._nx * new._ny
    masks = _random_masks(rng, cells, menu_sizes, window_bits)
    if kind == "within":
        within = rng.getrandbits(cells) | 1 << (cells - 1)
        new = _UnionMaskObjective(iter(map(iter, masks)), within=within)
        return new, OldUnionMaskObjective([[m & within for m in menu] for menu in masks]), cells
    width = rng.randint(1, cells)
    height = -(-cells // width)
    rows = ["".join(rng.choice("#.") for _ in range(width)) for _ in range(height)]
    roads = road_bits(rows)
    old = OldUnionMaskObjective([[m & roads for m in menu] for menu in masks])
    return GridCoverageObjective(rows, masks), old, roads.bit_length()


def _selection(rng, obj, size):
    agents = rng.choices(range(obj.n_agents), k=size)
    return [GroundElement(i, rng.randrange(obj.action_counts[i])) for i in agents]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["within", "grid", "disk"]),
    window_bits=st.sampled_from([objective._WINDOW_BITS, 64, 7, 1]),
    cells_per_window=st.sampled_from([0.5, 1, 1.5, 4, 12]),
)
@example(seed=0, kind="grid", window_bits=7, cells_per_window=4)
@example(seed=1, kind="within", window_bits=objective._WINDOW_BITS, cells_per_window=4)
def test_windowed_objective_matches_the_full_width_one(seed, kind, window_bits, cells_per_window):
    rng = random.Random(seed)
    cells = max(2, round(window_bits * cells_per_window))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objective, "_WINDOW_BITS", window_bits)
        new, old, width = _pair(kind, rng, cells, window_bits)
        assert isinstance(new._masks[0][0], tuple) == (width > window_bits)
        assert full_width_masks(new) == old._masks

        # states made by context and by chains of extends; each keeps the value it had
        states = [(new.context(), old.context(), [])]
        for _ in range(12):
            base_new, base_old, base_sel = states[rng.randrange(len(states))]
            if rng.random() < 0.7:
                e = _selection(rng, new, 1)[0]
                states.append((new.extend(base_new, e), old.extend(base_old, e), base_sel + [e]))
            else:
                sel = _selection(rng, new, rng.randint(0, 4))
                states.append((new.context(sel), old.context(sel), sel))
        probes = [_selection(rng, new, rng.randint(0, 3)) for _ in range(4)]
        before = [[new.evaluate(p, s) for p in probes] for s, _, _ in states]
        assert before == [[old.evaluate(p, s) for p in probes] for _, s, _ in states]
        assert before == [[new.evaluate(list(sel) + p) for p in probes] for _, _, sel in states]
        assert [[new.evaluate(iter(p), s) for p in probes] for s, _, _ in states] == before
        assert new.eval_count == old.eval_count + len(states) * len(probes) * 2

        # every rule, on the same inputs
        n = new.n_agents
        order = list(range(n))
        rng.shuffle(order)
        g = MeshGraph(n, [[j for j in range(n) if j != i and rng.random() < 0.5] for i in range(n)])
        access = [frozenset(order[:pos]) & g.in_neighbors[agent] for pos, agent in enumerate(order)]
        mesh = strongly_connected_line_plus(n, rng.randint(0, n * (n - 1) // 2 - (n - 1)), seed=seed)
        start = rng.randrange(n)
        for obj in (new, old):
            obj.eval_count = 0
        rules = [
            lambda obj: run_sg(obj, order),
            lambda obj: run_sg(obj, order, g=mesh),
            lambda obj: run_dsm(obj, InfoDag(order=tuple(order), access=tuple(access))),
            lambda obj: run_dfs_sg(obj, mesh, start),
            lambda obj: run_random_baseline(obj, random.Random(seed)),
        ] + [
            lambda obj, tb=tb, eta=eta: run_rag(obj, g, tie_break=tb, eta=eta, rng=random.Random(seed))
            for tb in TIE_BREAKS
            for eta in (1.0, 0.5)
        ]
        for rule in rules:
            assert rule(new) == rule(old)
            assert new.eval_count == old.eval_count


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_windowed_missions_match_full_width_ones(monkeypatch, algorithm):
    # a 12 x 12 world is 144 bits: 64-bit windows split every step's objective
    cfg = MissionConfig(
        n_agents=5, world_width=12, world_height=12, steps=4, k=2, algorithm=algorithm, seed=3
    )
    with monkeypatch.context() as patch:
        # the old mission step clipped each footprint to the uncovered road itself
        patch.setattr(
            scenario,
            "_UnionMaskObjective",
            lambda masks, within: OldUnionMaskObjective([[m & within for m in menu] for menu in masks]),
        )
        expected = [run_mission(cfg, trial) for trial in range(2)]
    monkeypatch.setattr(objective, "_WINDOW_BITS", 64)
    assert [run_mission(cfg, trial) for trial in range(2)] == expected


def test_a_windowed_objective_is_freed_without_the_cycle_collector():
    obj = _UnionMaskObjective([[1 << 5000, 3], [1 << 9000]], within=(1 << 9001) - 1)
    assert isinstance(obj._masks[0][0], tuple)
    assert obj.evaluate([GroundElement(0, 0)], obj.extend(obj.context(), GroundElement(1, 0))) == 2.0
    freed = weakref.ref(obj)
    gc.disable()
    try:
        del obj
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("width", [64, objective._WINDOW_BITS + 1])
def test_bad_footprints_are_named_on_both_sides_of_the_window_width(width):
    for bad in (-1, 1.5, "1"):
        with pytest.raises(ValueError, match="footprint of agent 1 action 0 must be a non-negative int"):
            GridCoverageObjective(["#" * width], [[1, 2], [bad, 4]])


@st.composite
def _boxes_in_a_world(draw):
    """A window width, a world on either side of it with road in its first rows only, and boxes near every edge."""
    window_bits = draw(st.integers(1, 64))
    width = draw(st.integers(1, 3 * window_bits))
    height = draw(st.integers(1, 8))
    road_rows = draw(st.integers(0, height))  # rows from here on have no road
    rows = [
        "".join(draw(st.sampled_from("#.")) if y < road_rows else "." for _ in range(width)) for y in range(height)
    ]

    def coordinate(size):
        # on, next to or past an edge, or anywhere inside
        anchor = draw(st.sampled_from([0, size - 1]) | st.integers(0, size - 1))
        return anchor + draw(st.integers(-4, 4))

    boxes = [
        (coordinate(width), coordinate(height), draw(st.integers(1, 7)), draw(st.integers(1, 7)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    return window_bits, rows, boxes


@settings(max_examples=300, deadline=None)
@given(world=_boxes_in_a_world())
@example(world=(1, ["#" * 3] * 3, [(1, 1, 3, 3)]))
@example(world=(2, ["##.", "#.#", ".##"], [(0, 0, 7, 7), (2, 2, 2, 2), (-3, 1, 7, 7)]))
@example(world=(4, ["#" * 9] * 3, [(4, 1, 7, 1), (4, 1, 1, 3), (0, 2, 2, 5)]))
def test_box_windows_are_the_cell_footprint_split_into_windows(world):
    window_bits, rows, boxes = world
    width, height = len(rows[0]), len(rows)
    footprints = [rect_footprint(cx, cy, fov_w, fov_h, width, height) for cx, cy, fov_w, fov_h in boxes]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objective, "_WINDOW_BITS", window_bits)
        built = [_box_windows(cx, cy, fov_w, fov_h, width, height) for cx, cy, fov_w, fov_h in boxes]
        for pairs, cells in zip(built, footprints):
            windows: dict[int, int] = {}
            for x, y in cells:
                idx, offset = divmod(y * width + x, window_bits)
                windows[idx] = windows.get(idx, 0) | 1 << offset
            assert pairs == tuple(sorted(windows.items()))

        # the pre-windowed input builds the objective the int masks build, clipped to the road
        windowed = GridCoverageObjective(rows, [built], _windowed=True)
        plain = GridCoverageObjective(rows, [[sum(1 << (y * width + x) for x, y in cells) for cells in footprints]])
        assert windowed._masks == plain._masks
        assert windowed._counts == plain._counts
        assert full_width_masks(windowed) == tuple(map(tuple, cell_masks(rows, [footprints])))


@settings(max_examples=300, deadline=None)
@given(
    window_bits=st.integers(1, 64) | st.sampled_from([objective._WINDOW_BITS, 8, 16, 1]),
    width=st.integers(0, 5000),
    data=st.data(),
)
@example(window_bits=objective._WINDOW_BITS, width=2 * objective._WINDOW_BITS + 1, data=None)
def test_split_reads_the_windows_the_whole_mask_shift_reads(window_bits, width, data):
    """Byte-sliced windows equal the shifted ones, for masks narrower and wider than width."""
    if data is None:
        masks = [(1 << width) - 1, 1 << (width - 1), 0]
    else:
        wide = data.draw(st.integers(0, width + 3 * window_bits))
        masks = [data.draw(st.integers(0, (1 << wide) - 1)), random.Random(width).getrandbits(width)]
    with mock.patch.object(objective, "_WINDOW_BITS", window_bits):
        for mask in masks:
            assert _split(mask, width) == split(mask, width)


@st.composite
def _masks_against_a_clip(draw):
    """A window width, a clip wider than one window, and masks on every side of it."""
    bits = draw(st.integers(1, 64) | st.just(2048))
    width = draw(st.integers(bits + 1, 6 * bits))
    within = draw(st.integers(1 << (width - 1), (1 << width) - 1))

    def straddling():
        # a run of bits from just below a window edge to past it, perhaps past the clip too
        edge = draw(st.integers(1, width // bits + 2)) * bits
        lo = edge - draw(st.integers(1, bits))
        return ((1 << draw(st.integers(edge - lo + 1, edge - lo + 2 * bits))) - 1) << lo

    masks = [
        0,
        draw(st.integers(0, within)) & within,  # inside the clip
        draw(st.integers(0, (1 << (width + draw(st.integers(1, 3 * bits)))) - 1)),  # wider than the clip
        1 << draw(st.integers(0, width + 3 * bits)),  # a single bit, perhaps past the clip
        straddling(),
    ]
    return bits, within, masks


@settings(max_examples=300, deadline=None)
@given(case=_masks_against_a_clip())
@example(case=(2048, (1 << 4097) - 1, [0, 1 << 4096, ((1 << 4) - 1) << 2046, 1 << 9000, (1 << 5000) - 1]))
@example(case=(1, 0b101, [0b1010, 0b11111, 1 << 2, 1 << 3]))
def test_span_split_clips_wide_int_masks_as_the_window_shift_did(case):
    """Int masks split across their span, then clipped by _clipped_pairs, give the old window clip's pairs."""
    bits, within, masks = case
    with mock.patch.object(objective, "_WINDOW_BITS", bits):
        within_windows = _split(within, within.bit_length())
        for mask in masks:
            assert _clipped_pairs(within_windows, _int_pairs(mask)) == window_pairs(within_windows, mask), mask
