"""Cell-set footprints: the reference the bitmask footprints are tested against.

GridCoverageObjective takes each footprint as an int bitmask (bit
y * width + x, as rect_mask builds it). Footprints used to be sets of (x, y)
cells, converted one cell at a time; that form is kept here so tests can
build an objective without the mask code. So is split, the window split
that shifted the whole mask once per window, and window_pairs, the clip of
int masks wider than one window that the span split through
objective._clipped_pairs replaced. And so is list_road_mask, random_road_mask
as it was when it carved the world into one list of bools per row, about
9 bytes a cell, before rows became bytearrays. And disk_mask,
DiskCoverageObjective's disk as it was rasterized one world-wide OR per
cell, before each row was built apart and shifted into place once.
"""

import math
from typing import Sequence

from meshcoord import objective
from meshcoord.objective import road_bits

Cell = tuple[int, int]


def rect_footprint(cx: int, cy: int, fov_w: int, fov_h: int, width: int, height: int) -> frozenset[Cell]:
    """Cells of a fov_w x fov_h rectangle centered at (cx, cy), clipped to the grid."""
    x0 = cx - fov_w // 2
    y0 = cy - fov_h // 2
    return frozenset(
        (x, y)
        for y in range(max(0, y0), min(height, y0 + fov_h))
        for x in range(max(0, x0), min(width, x0 + fov_w))
    )


def cell_masks(road_mask, footprints) -> list[list[int]]:
    """Each footprint's cells as a road-clipped bitmask; off-grid cells are dropped."""
    rows = list(road_mask)
    width = len(rows[0])
    height = len(rows)
    roads = road_bits(rows)
    masks = []
    for per_agent in footprints:
        menu = []
        for cells in per_agent:
            mask = 0
            for x, y in cells:
                if 0 <= x < width and 0 <= y < height:
                    mask |= 1 << (y * width + x)
            menu.append(mask & roads)
        masks.append(menu)
    return masks


def full_width_masks(obj) -> tuple[tuple[int, ...], ...]:
    """obj's masks as one int each, as wide as the world.

    Windowed masks are rebuilt from their (index, window) pairs, after
    checking that each window is non-empty, in range and in index order.
    """
    masks = []
    for per_agent in obj._masks:
        menu = []
        for stored in per_agent:
            if isinstance(stored, tuple):
                assert all(window for _, window in stored), "an empty window is stored"
                indices = [idx for idx, _ in stored]
                assert indices == sorted(set(indices)), "windows are not in increasing order"
                mask = 0
                for idx, window in stored:
                    assert 0 < window < 1 << objective._WINDOW_BITS
                    mask |= window << (idx * objective._WINDOW_BITS)
                stored = mask
            menu.append(stored)
        masks.append(tuple(menu))
    return tuple(masks)


def split(mask: int, width: int) -> list[int]:
    """objective._split as it was: one shift of the whole mask per window (verbatim)."""
    full = (1 << objective._WINDOW_BITS) - 1
    return [(mask >> lo) & full for lo in range(0, width, objective._WINDOW_BITS)]


def window_pairs(within_windows: Sequence[int], mask: int) -> tuple[tuple[int, int], ...]:
    """objective._window_pairs as it was (verbatim).

    mask ANDed with a clip that _split made, as (index, window) pairs for its non-empty windows.

    Costs one pass over mask to find its lowest bit, then work in proportion
    to the windows its bits span; bits past the clip's last window are dropped.
    """
    _WINDOW_BITS = objective._WINDOW_BITS
    if not mask:
        return ()
    first = ((mask & -mask).bit_length() - 1) // _WINDOW_BITS
    last = min((mask.bit_length() - 1) // _WINDOW_BITS, len(within_windows) - 1)
    pairs = []
    for idx in range(first, last + 1):
        window = (mask >> (idx * _WINDOW_BITS)) & within_windows[idx]
        if window:
            pairs.append((idx, window))
    return tuple(pairs)


def list_road_mask(rng, width: int, height: int, density: float, corridor_width: int = 1) -> list[str]:
    """Random corridor map: full-span road bands carved until density is reached.

    Deterministic in rng. The achieved density is the first value at or above
    the target (whole corridors are carved at a time).
    """
    if width < 1 or height < 1:
        raise ValueError("mask dimensions must be positive")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if corridor_width < 1:
        raise ValueError("corridor width must be positive")
    road = [[False] * width for _ in range(height)]

    def carve(xs: range, ys: range) -> int:
        """Makes the cells xs x ys road; returns how many were not road yet."""
        fresh = 0
        for y in ys:
            row = road[y]
            for x in xs:
                if not row[x]:
                    row[x] = True
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
    return ["".join("#" if c else "." for c in row) for row in road]


def disk_mask(disk, center: tuple[float, float]) -> int:
    """The disk's cells at center as one bitmask, set one world-wide bit at a time."""
    cx, cy = center
    xmin, ymin, _, _ = disk.arena
    res = disk.resolution
    r = disk.sensing_radius
    r2 = r * r
    ix_lo = max(0, math.floor((cx - r - xmin) * res))
    ix_hi = min(disk._nx - 1, math.ceil((cx + r - xmin) * res))
    iy_lo = max(0, math.floor((cy - r - ymin) * res))
    iy_hi = min(disk._ny - 1, math.ceil((cy + r - ymin) * res))
    mask = 0
    for iy in range(iy_lo, iy_hi + 1):
        py = ymin + (iy + 0.5) / res
        dy2 = (py - cy) ** 2
        row_base = iy * disk._nx
        for ix in range(ix_lo, ix_hi + 1):
            px = xmin + (ix + 0.5) / res
            if (px - cx) ** 2 + dy2 <= r2:
                mask |= 1 << (row_base + ix)
    return mask
