"""Ground set, coverage objectives, and structural measures of set functions.

The ground set is the disjoint union of per-agent action menus; a joint
selection assigns at most one element per agent. Objectives are normalized
(f of the empty set is 0), deterministic, and count their own evaluations so
coordination rules can be charged per call.
"""

from __future__ import annotations

import math
import reprlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, cycle, repeat
from operator import sub, truediv
from typing import Callable, Iterable, NamedTuple, Sequence

from meshcoord.topology import _int_value, _int_values, _isfinite

# tolerance for float-valued objectives in the exhaustive checks; coverage
# values are integer counts and never need it
_EPS = 1e-9

# the largest ground set the exhaustive checks enumerate: a 2^16-entry subset table
_EXHAUSTIVE_LIMIT = 16

# the most world cells, and the most agents, a mission may have: 2^22, just
# above the 2,000 x 2,000 world of README's 450-agent mission. Peak RSS of one
# run_mission (Python 3.11, 2-core x86-64 Linux): that mission's first step,
# 648 MB, as every destination keeps a footprint as wide as the world; a
# 400,000-agent random-rule step in a 100 x 100 world, 956 MB (about 2.3 KB
# an agent); a mission of no steps in a 2,048 x 2,048 world, 32 MB, as the
# draw holds one byte a cell. Past the limit either size fails by name,
# before anything is drawn. scaling_instance's world holds 36 cells an
# agent, so it admits at most 2^22 // 36 = 116,508 agents.
# random_coverage_instance's graphs hold up to n^2 edges and its menus n *
# max_actions actions, for n = max_agents, so n * (n + max_actions) is held to
# the limit. At its edge, 2,047 agents of 2 actions on a complete graph peaked
# at 716 MB (within a 1 GiB address-space cap); 64 agents of 65,472, 217 MB.
# A DiskCoverageObjective arena holds at most this many cells.
_MISSION_SIZE_LIMIT = 1 << 22


class GroundElement(NamedTuple):
    agent: int
    action: int


class Objective:
    """Normalized non-negative set function over GroundElements.

    Subclasses implement _value(frozenset) -> float, which must be
    deterministic, depend only on the members (not on the iteration order)
    and return 0.0 for the empty set. evaluate() increments
    eval_count by exactly 1 per call; that counter is the only mutable
    state, so concurrent workers should run on their own copies and merge
    tallies afterwards.

    A context state stands for a fixed selection that many candidates are
    scored against: context() builds one, extend() adds an element, and
    evaluate(extra, state) returns f(state + extra). The base state is the
    selection as a frozenset; subclasses with a cheaper representation
    override context, extend and _value_in together. _menu_values(agent,
    state) scores every action of one agent against a state, charging one
    evaluation per action; subclasses may override it with a fused loop.
    _least_gain_ratio and _coins, the evaluating cores of curvature and
    coin_sum, are overridable the same way: an override charges the same
    evaluations and returns the same floats.
    """

    _known_submodular = False  # True where every instance is submodular; bound_report checks the rest

    def __init__(self, action_counts: Sequence[int]):
        counts = _int_values(action_counts, "action_counts[{}] is")
        if not counts or any(c < 1 for c in counts):
            raise ValueError("every agent needs at least one action")
        self.action_counts = counts
        self.eval_count = 0

    @property
    def n_agents(self) -> int:
        return len(self.action_counts)

    def actions(self, agent: int) -> list[GroundElement]:
        return [GroundElement(agent, a) for a in range(self.action_counts[agent])]

    def ground(self) -> list[GroundElement]:
        return [e for i in range(self.n_agents) for e in self.actions(i)]

    def context(self, selection: Iterable[GroundElement] = ()):
        """A context state standing for selection; charges no evaluation."""
        return frozenset(selection)

    def extend(self, state, element: GroundElement):
        """A new state for state + element; charges nothing and leaves state as it was."""
        return state | {element}

    def evaluate(self, selection: Iterable[GroundElement], state=None) -> float:
        """f(selection), or f(state + selection) given a context state; one evaluation."""
        self.eval_count += 1
        return self._value_in(self.context() if state is None else state, selection)

    def _menu_values(self, agent: int, state) -> list[float]:
        """f(state + a) for each action a of agent, in action order; one evaluation per action."""
        return [self.evaluate((e,), state) for e in self.actions(agent)]

    def _least_gain_ratio(self) -> float:
        """min over elements a of [f(V) - f(V \\ {a})] / f({a}); 1 + 2|V| evaluations.

        Raises ValueError at the first element, in ground order, with f({a}) = 0.
        """
        elements = self.ground()
        f_full = self.evaluate(elements)
        worst = math.inf
        full = frozenset(elements)
        for a in elements:
            f_single = self.evaluate([a])
            if f_single == 0:
                raise ValueError(f"curvature undefined: f({a}) = 0")
            worst = min(worst, (f_full - self.evaluate(full - {a})) / f_single)
        return worst

    def _check_actions(self, actions: Sequence[GroundElement]) -> None:
        """Raises ValueError unless actions[i] is an action (i, a) of agent i, for every agent i."""
        if len(actions) != self.n_agents:
            raise ValueError("need one selected action per agent")
        for i, (element, count) in enumerate(zip(actions, self.action_counts)):
            try:
                agent, a = element
                valid = agent == i and 0 <= a < count
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise ValueError(f"actions[{i}] is {element!r}, not an action (agent {i}, a) with 0 <= a < {count}")

    def _coins(self, actions: Sequence[GroundElement], in_neighbors: Sequence[Iterable[int]]) -> list[float]:
        """coin(self, i, actions, in_neighbors[i]) for each agent i in order; three evaluations each.

        Needs agent i's own action at position i and one in-neighborhood per
        agent, each neighborhood within the team and without its agent, as
        coin_sum checks.
        """
        return [
            _coin_term(self, self.context([a for j, a in enumerate(actions) if j != i and j not in nbrs]), actions[i])
            for i, nbrs in enumerate(in_neighbors)
        ]

    def _value(self, selection: frozenset[GroundElement]) -> float:
        raise NotImplementedError

    def _value_in(self, state, extra: Iterable[GroundElement]) -> float:
        return self._value(state.union(extra))


# masks wider than this many bits are stored as windows of this many bits
_WINDOW_BITS = 2048

class _UnionMaskObjective(Objective):
    """An objective whose value depends only on the OR of per-element bitmasks.

    masks[i][a] is the non-negative int bitmask of cells agent i's action a
    covers; each is clipped to within as it arrives. The value is the
    union's bit count times cell_area, which is read once, when the
    objective is built. With _windowed, each mask arrives instead as the
    (window index, window) pairs that _box_windows builds, and is clipped to
    within window by window, so that no mask as wide as the world is made:
    scaling_instance builds its footprints this way. The stored masks are
    the ones the same footprints give as ints.

    Up to _WINDOW_BITS bits wide (within's width), a mask is kept as one int
    and the context state is the union of the selection's masks: scoring a
    candidate costs one OR and one popcount. Wider, the masks and the state
    methods belong to a _WindowedMasks, whose context, extend, value_in and
    menu_values stand in for this object's context, extend, _value_in and
    _menu_scores; subclasses therefore do not override those four.
    f({(i, a)}) is _counts[i][a] * cell_area.

    Curvature and coin sums are counted from the footprints, not
    evaluated: f(V \\ {a}) lacks the cells only a covers, and a coin term's
    two contexts lack the cells that only the agent and its in-neighbours
    cover. Each count becomes a float as the evaluation it stands for
    would have.
    """

    _known_submodular = True  # a union's cell count times a positive cell_area
    cell_area = 1.0

    def __init__(self, masks: Iterable[Iterable], within: int, _windowed: bool = False):
        width = within.bit_length()
        # the window width is read here only, so it is fixed when the objective is built
        self._window_bits = _WINDOW_BITS
        if width <= _WINDOW_BITS:
            if _windowed:
                masks = (map(_joined, menu) for menu in masks)
            self._masks = tuple([tuple([mask & within for mask in menu]) for menu in masks])
            self._window_count = 1
        else:
            if not _windowed:
                masks = (map(_int_pairs, menu) for menu in masks)
            within_windows = _split(within, width)
            clip = partial(_clipped_pairs, within_windows)
            self._masks = tuple([tuple(map(clip, menu)) for menu in masks])
            self._window_count = len(within_windows)
            # bound to the _WindowedMasks, not to self, so the objective is no reference cycle
            windowed = _WindowedMasks(self._masks, self._counts, self._window_count, self.cell_area)
            self.context, self.extend, self._value_in = windowed.context, windowed.extend, windowed.value_in
            self._menu_scores = windowed.menu_values
        super().__init__(list(map(len, self._masks)))

    @cached_property
    def _counts(self) -> tuple[tuple[int, ...], ...]:
        """_counts[i][a] is the cell count of _masks[i][a]; windowed objectives count when built."""
        return tuple(
            [tuple([sum([w.bit_count() for _, w in _as_pairs(stored)]) for stored in menu]) for menu in self._masks]
        )

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

    def _menu_values(self, agent: int, state) -> list[float]:
        self.eval_count += self.action_counts[agent]
        return self._menu_scores(state, agent)

    def _menu_scores(self, state: int, agent: int) -> list[float]:
        """The value of state with each of agent's masks added; charges nothing."""
        area = self.cell_area
        return [(state | mask).bit_count() * area for mask in self._masks[agent]]

    def _least_gain_ratio(self) -> float:
        footprints = [list(map(_as_pairs, menu)) for menu in self._masks]
        once = [0] * self._window_count  # cells some element covers
        twice = [0] * self._window_count  # cells two or more elements cover
        for menu in footprints:
            for pairs in menu:
                for idx, window in pairs:
                    twice[idx] |= once[idx] & window
                    once[idx] |= window
        only = [o & ~t for o, t in zip(once, twice)]
        full = sum(map(int.bit_count, once))
        area = self.cell_area
        f_full = full * area
        worst = math.inf
        position = 0
        for i, (menu, counts) in enumerate(zip(footprints, self._counts)):
            for a, (pairs, count) in enumerate(zip(menu, counts)):
                f_single = count * area
                if f_single == 0:
                    self.eval_count += 2 + 2 * position  # f(V), two per earlier element, and this f({a})
                    raise ValueError(f"curvature undefined: f({GroundElement(i, a)}) = 0")
                own = sum([(window & only[idx]).bit_count() for idx, window in pairs])
                worst = min(worst, (f_full - (full - own) * area) / f_single)
                position += 1
        self.eval_count += 1 + 2 * position
        return worst

    def _coins(self, actions: Sequence[GroundElement], in_neighbors: Sequence[Iterable[int]]) -> list[float]:
        masks = self._masks
        cells = [_cell_ids(_as_pairs(masks[i][a]), self._window_bits) for i, a in actions]
        cover = Counter(chain.from_iterable(cells))  # cell -> how many agents' actions cover it
        total = len(cover)
        shared = [[c for c in own if cover[c] > 1] for own in cells]
        alone = [len(own) - len(both) for own, both in zip(cells, shared)]  # cells no other agent covers
        area = self.cell_area
        coins = []
        for i, nbrs in enumerate(in_neighbors):
            local: dict[int, int] = {}  # shared cell -> how many in-neighbours cover it
            for j in nbrs:
                for c in shared[j]:
                    local[c] = local.get(c, 0) + 1
            # f(ctx + a_i) lacks the cells only in-neighbours cover; f(ctx)
            # lacks those too, and the cells of a_i only i and in-neighbours cover
            lost_with = sum([alone[j] for j in nbrs]) + sum([cover[c] == k for c, k in local.items()])
            lost_ctx = lost_with + alone[i] + sum([cover[c] == local.get(c, 0) + 1 for c in shared[i]])
            f_ctx = (total - lost_ctx) * area
            agent, action = actions[i]
            coins.append(self._counts[agent][action] * area - ((total - lost_with) * area - f_ctx))
        self.eval_count += 3 * self.n_agents
        return coins


class _WindowedMasks:
    """The context states of a _UnionMaskObjective wider than _WINDOW_BITS.

    masks[i][a] is a tuple of (window index, window) pairs, window idx
    holding bits idx * _WINDOW_BITS onward, for the non-empty windows only.
    counts[i][a] is the cell count of masks[i][a]. A state is (covered
    count, list of window unions), never changed once made: scoring a
    candidate costs one AND and one popcount per window of its footprint,
    subtracted from its count, not a pass over the whole world.
    """

    def __init__(self, masks: tuple, counts: tuple, window_count: int, cell_area: float):
        self.masks = masks
        self.counts = counts
        self.window_count = window_count
        self.cell_area = cell_area

    def context(self, selection: Iterable[GroundElement] = ()) -> tuple[int, list[int]]:
        windows = [0] * self.window_count
        for idx, window in self._union(selection).items():
            windows[idx] = window
        return sum(map(int.bit_count, windows)), windows

    def extend(self, state: tuple[int, list[int]], element: GroundElement) -> tuple[int, list[int]]:
        covered, windows = state
        windows = windows.copy()
        i, a = element
        covered += self.counts[i][a]
        for idx, window in self.masks[i][a]:
            covered -= (window & windows[idx]).bit_count()
            windows[idx] |= window
        return covered, windows

    def value_in(self, state: tuple[int, list[int]], extra: Iterable[GroundElement]) -> float:
        covered, windows = state
        for idx, window in self._union(extra).items():
            covered += window.bit_count() - (window & windows[idx]).bit_count()
        return covered * self.cell_area

    def menu_values(self, state: tuple[int, list[int]], agent: int) -> list[float]:
        """value_in(state, (e,)) for each action e of agent, in action order."""
        covered, windows = state
        area = self.cell_area
        values = []
        for footprint, count in zip(self.masks[agent], self.counts[agent]):
            total = covered + count
            for idx, window in footprint:
                total -= (window & windows[idx]).bit_count()
            values.append(total * area)
        return values

    def _union(self, selection: Iterable[GroundElement]) -> dict[int, int]:
        """The OR of the selection's masks, as window index -> window for the windows it touches."""
        masks = self.masks
        union: dict[int, int] = {}
        for i, a in selection:
            for idx, window in masks[i][a]:
                union[idx] = union.get(idx, 0) | window
        return union


def _split(mask: int, width: int) -> list[int]:
    """A non-negative mask as its ceil(width / _WINDOW_BITS) windows, window idx holding bits from idx * _WINDOW_BITS.

    Each window is read from the bytes it spans and shifted within its
    first byte, so the split costs time linear in the mask's width.
    """
    bits = _WINDOW_BITS
    full = (1 << bits) - 1
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [
        (int.from_bytes(raw[lo >> 3:(lo + bits + 7) >> 3], "little") >> (lo & 7)) & full
        for lo in range(0, width, bits)
    ]


def _as_pairs(stored: int | tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """A stored mask as (window index, window) pairs; a plain int mask is the one pair (0, mask)."""
    return ((0, stored),) if isinstance(stored, int) else stored


def _cell_ids(pairs: Iterable[tuple[int, int]], window_bits: int) -> list[int]:
    """The bit numbers of a mask given as (window index, window) pairs of window_bits bits each."""
    cells = []
    for idx, window in pairs:
        base = idx * window_bits - 1
        while window:
            low = window & -window
            cells.append(base + low.bit_length())
            window ^= low
    return cells


def _clipped_pairs(within_windows: Sequence[int], pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """(index, window) pairs ANDed window by window with a clip that _split made; empty windows are dropped."""
    count = len(within_windows)
    return tuple([(idx, clipped) for idx, window in pairs if idx < count and (clipped := window & within_windows[idx])])


def _joined(pairs: Iterable[tuple[int, int]]) -> int:
    """(index, window) pairs as one int, window idx placed at bit idx * _WINDOW_BITS."""
    return sum([window << idx * _WINDOW_BITS for idx, window in pairs])


def _int_pairs(mask: int) -> Iterable[tuple[int, int]]:
    """A non-negative int mask as (index, window) pairs, from its lowest non-empty window to its highest.

    Windows inside that span may be empty. The mask is read once to find its
    lowest bit and split linearly across its span only, not from window 0.
    """
    if not mask:
        return ()
    first = ((mask & -mask).bit_length() - 1) // _WINDOW_BITS
    span = mask.bit_length() - first * _WINDOW_BITS
    return enumerate(_split(mask >> first * _WINDOW_BITS, span), first)


def _box_windows(cx: int, cy: int, fov_w: int, fov_h: int, width: int, height: int) -> tuple[tuple[int, int], ...]:
    """The cells of a fov_w x fov_h rectangle centered at (cx, cy), clipped to the grid, as (index, window) pairs.

    Window idx holds bits idx * _WINDOW_BITS onward, read when called; only
    non-empty windows are listed, in index order. The box is built one
    clipped row at a time, straight into the window it falls in, and a row
    that straddles a window boundary is split between the windows it spans;
    no int wider than one window is made, however wide the world is.
    """
    bits = _WINDOW_BITS
    x0, y0 = cx - fov_w // 2, cy - fov_h // 2
    lo = max(0, x0)
    run = min(width, x0 + fov_w) - lo
    pairs = []
    idx, window = -1, 0
    if run > 0:
        row = (1 << run) - 1
        for start in range(max(0, y0) * width + lo, min(height, y0 + fov_h) * width, width):
            i, offset = divmod(start, bits)
            if i != idx:
                if window:
                    pairs.append((idx, window))
                idx, window = i, 0
            window |= row << offset
            while window >> bits:  # the row runs on into the next window
                pairs.append((idx, window & ((1 << bits) - 1)))
                idx += 1
                window >>= bits
    if window:
        pairs.append((idx, window))
    return tuple(pairs)


class CallableObjective(Objective):
    """Objective backed by an arbitrary function of the selection set.

    Used for analytic toys (modular, supermodular, log-det) in tests and
    negative controls. The callable must be normalized and deterministic.
    """

    def __init__(self, action_counts: Sequence[int], fn: Callable[[frozenset], float]):
        super().__init__(action_counts)
        self._fn = fn

    def _value(self, selection: frozenset[GroundElement]) -> float:
        return float(self._fn(selection))


class GridCoverageObjective(_UnionMaskObjective):
    """Counts road cells covered by the union of the selection's footprints.

    road_mask rows use '#' for road and '.' for empty. footprints[i][a] is
    the int bitmask of cells covered when agent i takes action a, bit
    y * width + x for cell (x, y) as rect_mask builds it; bits off the road
    (or past the grid) contribute nothing. Values are exact integer counts
    returned as floats. The private _windowed takes each footprint as the
    (window index, window) pairs that _box_windows builds, unchecked.
    """

    def __init__(self, road_mask: Sequence[str], footprints: Iterable[Iterable], _windowed: bool = False):
        rows = list(road_mask)
        _check_road_rows(rows)
        self.width = len(rows[0])
        self.height = len(rows)
        self.road_mask = tuple(rows)
        roads = road_bits(rows)
        self.road_cell_count = roads.bit_count()
        if not _windowed:
            footprints = (
                [_checked_mask(mask, i, a) for a, mask in enumerate(menu)] for i, menu in enumerate(footprints)
            )
        super().__init__(footprints, within=roads, _windowed=_windowed)

    def covered_cells(self, selection: Iterable[GroundElement]) -> int:
        return int(self._value_in(self.context(), selection))


def _checked_mask(mask: int, agent: int, action: int) -> int:
    if not isinstance(mask, int) or mask < 0:
        raise ValueError(
            f"footprint of agent {agent} action {action} must be a non-negative int bitmask"
            f" (bit y * width + x, as from rect_mask), got {reprlib.repr(mask)}"
        )
    return mask


class DiskCoverageObjective(_UnionMaskObjective):
    """Rasterized area (m^2) of the union of sensing disks, clipped to an arena.

    centers[i][a] is the disk center (meters) for agent i's action a; every
    disk has the same sensing_radius. A cell counts as covered when its center
    lies within the radius, so all area equalities hold only up to one
    boundary-cell layer per disk. An arena of more than _MISSION_SIZE_LIMIT
    cells at the given resolution raises before any disk is built.
    """

    def __init__(
        self,
        centers: Sequence[Sequence[tuple[float, float]]],
        sensing_radius: float,
        arena: tuple[float, float, float, float],
        resolution: int = 10,
    ):
        if not (_isfinite(sensing_radius, "sensing_radius") and sensing_radius > 0):
            raise ValueError(f"sensing_radius must be positive and finite, got {sensing_radius!r}")
        # _disk_mask squares only the offsets of cells in the disk's clamped span, which this keeps in the float range
        if float(sensing_radius) * float(sensing_radius) == math.inf:
            raise ValueError(f"sensing_radius {sensing_radius!r} is too large: its square is past the float range")
        if not (_isfinite(resolution, "resolution") and resolution >= 1 and resolution % 1 == 0):
            raise ValueError(
                f"resolution must be a whole number of cells per meter, at least 1, got {resolution!r}"
            )
        for name, bound in zip(("xmin", "ymin", "xmax", "ymax"), arena):
            if not _isfinite(bound, f"arena bound {name}"):
                raise ValueError(f"arena bound {name} must be finite, got {bound!r}")
        xmin, ymin, xmax, ymax = arena
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("arena must have positive extent")
        # cells per side, capped just past the limit so that ceil never meets an overflowed inf
        self._nx = math.ceil(min((xmax - xmin) * resolution, _MISSION_SIZE_LIMIT + 1))
        self._ny = math.ceil(min((ymax - ymin) * resolution, _MISSION_SIZE_LIMIT + 1))
        if self._nx * self._ny > _MISSION_SIZE_LIMIT:
            raise ValueError(f"the arena at resolution {resolution!r} has more than {_MISSION_SIZE_LIMIT:,} cells")
        if not _isfinite(resolution * resolution, "resolution squared"):  # the cell area below divides by it
            raise ValueError("resolution squared is past the float range")
        self.sensing_radius = float(sensing_radius)
        self.arena = (float(xmin), float(ymin), float(xmax), float(ymax))
        self.resolution = int(resolution)
        self.cell_area = 1.0 / (resolution * resolution)
        try:
            self.centers = tuple(tuple((float(x), float(y)) for x, y in per_agent) for per_agent in centers)
        except OverflowError:
            raise ValueError("centers hold a coordinate past the float range") from None
        for i, per_agent in enumerate(self.centers):
            for a, center in enumerate(per_agent):
                if not all(map(math.isfinite, center)):
                    raise ValueError(f"center of agent {i} action {a} must be finite, got {center!r}")
        super().__init__(
            ((self._disk_mask(c) for c in per_agent) for per_agent in self.centers),
            within=(1 << (self._nx * self._ny)) - 1,
        )

    def _disk_mask(self, center: tuple[float, float]) -> int:
        cx, cy = center
        xmin, ymin, _, _ = self.arena
        res = self.resolution
        r = self.sensing_radius
        r2 = r * r
        # index bounds clamped in floats, to one past the arena at most, so that
        # floor and ceil never meet the inf of a disk far outside, which covers nothing
        ix_lo = math.floor(min(max((cx - r - xmin) * res, 0.0), self._nx))
        ix_hi = math.ceil(max(min((cx + r - xmin) * res, self._nx - 1.0), -1.0))
        iy_lo = math.floor(min(max((cy - r - ymin) * res, 0.0), self._ny))
        iy_hi = math.ceil(max(min((cy + r - ymin) * res, self._ny - 1.0), -1.0))
        mask = 0
        for iy in range(iy_lo, iy_hi + 1):
            py = ymin + (iy + 0.5) / res
            dy2 = (py - cy) ** 2
            row = 0  # bit k is cell ix_lo + k, shifted into place once per row
            for ix in range(ix_lo, ix_hi + 1):
                px = xmin + (ix + 0.5) / res
                if (px - cx) ** 2 + dy2 <= r2:
                    row |= 1 << (ix - ix_lo)
            mask |= row << (iy * self._nx + ix_lo)
        return mask


@dataclass(frozen=True)
class StructureReport:
    kappa: float
    c_total: float
    is_monotone: bool
    is_submodular: bool
    is_second_order_submodular: bool


def curvature(obj: Objective) -> float:
    """Worst-case shrinkage of an element's gain in the largest context.

    kappa = 1 - min over elements a of [f(V) - f(V \\ {a})] / f({a}).

    Valid as the curvature only for monotone submodular f, where the full
    ground set minimizes the marginal gain; validate_structure(obj).kappa is
    the general (exponential) form. Charges 1 + 2|ground| evaluations;
    coverage objectives count the terms from their footprints in one pass
    instead of evaluating each.
    """
    return _clamp_unit(1.0 - obj._least_gain_ratio(), "curvature")


def total_curvature(obj: Objective) -> float:
    """Curvature generalization for monotone but possibly non-submodular f.

    c = 1 - min over v of [min_A f(v|A) / max_B f(v|B)] with A, B over all
    subsets of ground \\ {v}. Elements whose denominator is zero for every B
    are skipped; if all are skipped the measure is undefined.
    """
    return _table_terms(obj, check_submodular=False)[0]


def subset_value_table(obj: Objective, elements: Sequence[GroundElement]) -> list[float]:
    """f over every subset of elements, indexed by bitmask (bit j = elements[j]).

    Charges 2^len(elements) evaluations, one per entry, before it reads
    any element; the oracle behind the exhaustive checks and the measures
    above. The subsets are walked depth first, each one's context state its
    parent's extended by one element, so at most len(elements) + 1 states
    are alive at once.
    """
    m = len(elements)
    obj.eval_count += 1 << m
    table = [0.0] * (1 << m)
    value_in, extend = obj._value_in, obj.extend

    def fill(state, mask: int, first: int) -> None:
        table[mask] = value_in(state, ())
        for j in range(first, m):
            fill(extend(state, elements[j]), mask | 1 << j, j + 1)

    fill(obj.context(), 0, 0)
    return table


def _table_terms(obj: Objective, check_submodular: bool) -> tuple[float, bool]:
    """The total curvature, and whether obj is submodular: as checked, or True unchecked.

    Raises past the size guard. Otherwise one subset table of the ground
    set is built, as subset_value_table builds and charges it, and each
    element's first differences are taken from it once: they give the
    element's extremes for the total curvature, and the submodularity
    check, when asked for, reads them until its first violation.
    """
    elements = obj.ground()
    m = len(elements)
    _size_guard(m)
    table = subset_value_table(obj, elements)
    extremes = []
    submodular = True
    for s in range(m):
        gains = _differences(table, s)
        extremes.append((_least(gains), _greatest(gains)))
        if check_submodular and submodular:
            submodular = _submodular_along(gains, s, m)
    return _total_curvature(extremes), submodular


def validate_structure(obj: Objective) -> StructureReport:
    """Exhaustively checks monotonicity, submodularity, and 2nd-order submodularity.

    All three checks use single-element-extension forms, which are equivalent
    to the fully quantified definitions by telescoping:
      monotone:    f(A + x) >= f(A)
      submodular:  f(s | A) >= f(s | A + y)
      2nd-order:   f(s | A) - f(s | A + x) >= f(s | A + y) - f(s | A + x + y)
    Also computes exhaustive curvature and total curvature; both are NaN when
    the function is not monotone (they presume non-negative gains). Zero-value
    singletons are rejected (curvature is undefined there). Every check runs
    whatever the objective's class states. Costs 2^m evaluations and
    O(2^m * m^3) arithmetic for a ground set of m elements.
    """
    elements = obj.ground()
    _size_guard(len(elements))
    table = subset_value_table(obj, elements)
    for j, a in enumerate(elements):
        if table[1 << j] == 0:
            raise ValueError(f"structure validation rejected: f({a}) = 0")
    return _table_structure(table, len(elements))


def _table_structure(table: list[float], m: int) -> StructureReport:
    # one pass over the elements, each one's first differences taken once
    # and read by every check and measure that still needs them; no f({s})
    # is zero, since validate_structure rejects those first
    monotone = submodular = second_order = True
    worst = math.inf  # the curvature's least gain ratio
    extremes = []  # each element's least and greatest gain, for the total curvature
    for s in range(m):
        if not (monotone or submodular or second_order):
            break
        gains = _differences(table, s)  # f(s | A) for every A without s
        if monotone:
            least = _least(gains)
            monotone = least >= -_EPS
            extremes.append((least, _greatest(gains)))
            worst = _least(map(truediv, gains, repeat(table[1 << s])), worst)
        submodular = submodular and _submodular_along(gains, s, m)
        # lhs - rhs of the 2nd-order inequality is the third difference of f
        # along s, x and y, which is symmetric in all three: checking it once
        # per set s < x < y covers every ordering. Bit x of the gains' index
        # is element x + 1, bit y of gains_x's is element y + 2.
        for x in range(s, m - 1):
            if not second_order:
                break
            gains_x = _differences(gains, x)
            for y in range(x, m - 2):
                if _least(_differences(gains_x, y)) < -_EPS:
                    second_order = False
                    break

    if monotone:
        kappa = _clamp_unit(1.0 - worst, "curvature")
        c_total = _total_curvature(extremes)
    else:
        # both measures presume non-negative marginal gains
        kappa = c_total = math.nan
    return StructureReport(
        kappa=kappa,
        c_total=c_total,
        is_monotone=monotone,
        is_submodular=submodular,
        is_second_order_submodular=second_order,
    )


def _submodular_along(gains: list[float], s: int, m: int) -> bool:
    """Whether f(s | A) >= f(s | A + y) for every y > s, given gains = _differences(table, s).

    The inequality is symmetric in s and y, so checking y > s for every s
    covers both orders; in floating point the other order may round
    differently, which matters only within rounding of the tolerance.
    """
    # bit y of the gains' index is element y + 1
    return not any(_greatest(_differences(gains, y)) > _EPS for y in range(s, m - 1))


def _differences(values: list[float], k: int) -> list[float]:
    """values[A + 2^k] - values[A] for every index A without bit k, in order of A.

    values is indexed by bitmask, 2^m entries for some m > k. The result is
    indexed by A with bit k deleted, so the bits above k move down by one:
    differencing again along an element j > k of the original index uses bit
    j - 1.
    """
    keep = (True,) * (1 << k) + (False,) * (1 << k)  # the indices without bit k
    return list(map(sub, compress(values[1 << k:], cycle(keep)), compress(values, cycle(keep))))


def _least(values: Iterable[float], start: float = math.inf) -> float:
    """The smallest of start and values, skipping NaNs as a loop of min(least, v) would.

    A plain min(values) would return a leading NaN, hiding everything after it.
    """
    return min(chain((start,), values))


def _greatest(values: Iterable[float]) -> float:
    """The largest of values, or -inf; NaNs are skipped as in _least."""
    return max(chain((-math.inf,), values))


def _total_curvature(extremes: Sequence[tuple[float, float]]) -> float:
    """1 - min over elements of least gain / greatest gain, from each element's (least, greatest) gain.

    Elements whose greatest gain is zero are skipped; raises ValueError if
    every element is.
    """
    worst = math.inf
    skipped = 0
    for least, greatest in extremes:
        if greatest == 0:
            skipped += 1
            continue
        worst = min(worst, least / greatest)
    if skipped == len(extremes):
        raise ValueError("total curvature undefined: every element has zero gain everywhere")
    return _clamp_unit(1.0 - worst, "total curvature")


def coin(
    obj: Objective,
    agent: int,
    actions: Sequence[GroundElement],
    neighborhood: Iterable[int],
) -> float:
    """How much of an agent's action value its non-neighbors already hold.

    coin = f(a_i) - f(a_i | {a_j : j not in neighborhood, j != i}), evaluated
    at the given joint actions. 0 when the neighborhood covers everyone else;
    grows as the neighborhood shrinks (non-neighbors can pre-empt more of
    a_i's value). Always within [0, f(a_i)] for monotone submodular f.
    """
    agent = _int_value(agent, "agent")
    nbrs = set(_int_values(neighborhood, "neighborhood lists agent id"))
    if agent in nbrs:
        raise ValueError("agent may not appear in its own neighborhood")
    n = obj.n_agents
    obj._check_actions(actions)
    if not nbrs <= set(range(n)):
        raise ValueError("neighborhood contains unknown agent ids")
    if not 0 <= agent < n:
        raise ValueError(f"agent {agent!r} is not an agent id in [0, {n})")
    others = obj.context(actions[j] for j in range(n) if j != agent and j not in nbrs)
    return _coin_term(obj, others, actions[agent])


def _coin_term(obj: Objective, others, a_i: GroundElement) -> float:
    """f(a_i) - [f(others + a_i) - f(others)] for a context state others; three evaluations."""
    f_single = obj.evaluate((a_i,))
    f_ctx = obj.evaluate((), others)
    return f_single - (obj.evaluate((a_i,), others) - f_ctx)


def coin_ring_bound(r_s: float, r_i: float) -> float:
    """Closed-form coin bound for disk sensing with non-neighbors at distance >= r_i.

    max(0, pi * [r_s^2 - (r_i - r_s)^2]): the annulus of agent i's disk that
    disks centered at least r_i away can reach. Meaningful for r_i >= r_s;
    zero from r_i = 2 r_s outward. Either distance r with pi * r^2 past the
    float range raises ValueError naming it.
    """
    if not (_isfinite(r_s, "sensing radius r_s") and r_s > 0):
        raise ValueError(f"sensing radius r_s must be positive and finite, got {r_s!r}")
    if not (_isfinite(r_i, "separation distance r_i") and r_i >= 0):
        raise ValueError(f"separation distance r_i must be non-negative and finite, got {r_i!r}")
    for name, r in (("sensing radius r_s", r_s), ("separation distance r_i", r_i)):
        if math.pi * r * r == math.inf:  # else (r_i - r_s) ** 2 below cannot overflow
            raise ValueError(f"{name} {r!r} is too large: pi times its square is past the float range")
    return max(0.0, math.pi * (r_s * r_s - (r_i - r_s) ** 2))


def _check_road_rows(rows: Sequence[str]) -> None:
    """Raises ValueError unless rows is a non-empty rectangle of '#' and '.'; names the first bad row."""
    if not rows or not rows[0]:
        raise ValueError("road mask is empty")
    width = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"road mask row {idx} has length {len(row)}, expected {width}")
        bad = set(row) - {"#", "."}
        if bad:
            raise ValueError(f"road mask row {idx} contains invalid characters {sorted(bad)!r}")


def parse_road_mask(text: str) -> list[str]:
    """Road mask from plain text: '#' road, '.' empty, one row per line."""
    rows = [line for line in text.splitlines() if line.strip()]
    _check_road_rows(rows)
    return rows


def random_road_mask(rng, width: int, height: int, density: float, corridor_width: int = 1) -> list[str]:
    """Random corridor map: full-span road bands carved until density is reached.

    Deterministic in rng. The achieved density is the first value at or above
    the target (whole corridors are carved at a time). A mask of more than
    _MISSION_SIZE_LIMIT cells raises before anything is built or drawn.
    """
    if width < 1 or height < 1:
        raise ValueError("mask dimensions must be positive")
    if width * height > _MISSION_SIZE_LIMIT:
        raise ValueError(
            f"width x height may be at most {_MISSION_SIZE_LIMIT:,} cells, got {width:,} x {height:,}"
        )
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if corridor_width < 1:
        raise ValueError("corridor width must be positive")
    # one byte a cell, b"." or b"#", decoded once at the end
    road = [bytearray(b"." * width) for _ in range(height)]

    def carve(xs: range, ys: range) -> int:
        """Makes the cells xs x ys road; returns how many were not road yet."""
        fresh = 0
        for y in ys:
            row = road[y]
            for x in xs:
                if row[x] != _ROAD:
                    row[x] = _ROAD
                    fresh += 1
        return fresh

    total = width * height
    covered = 0
    carves = 0
    while covered < density * total:
        carves += 1
        if carves > 20 * (width + height):
            # random carving stalled near full density; fill rows top-down
            for y in range(height):
                covered += carve(range(width), range(y, y + 1))
                if covered >= density * total:
                    break
            break
        if rng.random() < 0.5:
            y0 = rng.randrange(height)
            covered += carve(range(width), range(y0, min(y0 + corridor_width, height)))
        else:
            x0 = rng.randrange(width)
            covered += carve(range(x0, min(x0 + corridor_width, width)), range(height))
    return [row.decode() for row in road]


_ROAD = ord("#")
_ROAD_DIGITS = str.maketrans("#.", "10")


def road_bits(rows: Sequence[str]) -> int:
    """The '#' cells of a rectangular road mask as an int, bit y * width + x per cell."""
    return int("".join(rows)[::-1].translate(_ROAD_DIGITS), 2)


def rect_mask(cx: int, cy: int, fov_w: int, fov_h: int, width: int, height: int) -> int:
    """The cells of a fov_w x fov_h rectangle centered at (cx, cy), clipped to the grid.

    A bitmask, bit y * width + x per cell: the windows _box_windows builds, joined.
    """
    return _joined(_box_windows(cx, cy, fov_w, fov_h, width, height))


def _size_guard(size: int) -> None:
    if size > _EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"ground set of {size} elements exceeds the exhaustive-check limit of {_EXHAUSTIVE_LIMIT}"
        )


def _clamp_unit(value: float, label: str) -> float:
    if value < -1e-6 or value > 1 + 1e-6:
        raise ValueError(f"{label} {value} falls outside [0, 1]; objective is not monotone-normalized")
    return min(1.0, max(0.0, value))
