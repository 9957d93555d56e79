import random
from unittest import mock

from meshcoord import objective
from meshcoord.instances import random_coverage_instance


def coverage_instance(seed, **kwargs):
    """Seeded random grid-coverage objective + communication graph."""
    return random_coverage_instance(random.Random(seed), **kwargs)


def windowed_mask_objective(rng: random.Random, menu_sizes: list[int]) -> objective._UnionMaskObjective:
    """A _UnionMaskObjective over 65 to 300 cells, built with objective._WINDOW_BITS
    patched to 1-64, so its masks are (index, window) pairs and its states windowed.

    The width is read only while the masks are split, so the patch ends with
    the constructor. Masks are random spans, some empty, some past the world.
    """
    cells = rng.randint(65, 300)
    masks = [
        [rng.getrandbits(rng.randint(0, cells)) << rng.randrange(cells) for _ in range(size)]
        for size in menu_sizes
    ]
    with mock.patch.object(objective, "_WINDOW_BITS", rng.randint(1, 64)):
        obj = objective._UnionMaskObjective(masks, within=(1 << cells) - 1)
    assert isinstance(obj._masks[0][0], tuple)
    return obj
