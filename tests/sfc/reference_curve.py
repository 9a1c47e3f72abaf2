"""Forward face-curve constructions: the key path's golden oracles.

The library defines every face curve by its keys
(:func:`repro.sfc.keys.curve_keys`, :func:`repro.sfc.keys.morton_keys`)
and materializes a curve by inverting them.  The constructions here
build the same curves the other way round, from the visit order out,
so the tests compare two independent implementations:

* :func:`reference_curve` expands a refinement schedule one level at a
  time, the paper's recursion (Fig. 3) evaluated over whole arrays;
* :func:`reference_morton_curve` de-interleaves the bits of each curve
  position into its cell.

Both keep the library's dtypes: int32 arrays while ``n * n`` positions
fit, int64 past that, and int64 always for Morton.
"""

from __future__ import annotations

import numpy as np

from repro.sfc.curves import TEMPLATES
from repro.sfc.factorization import schedule_size
from repro.sfc.generator import SpaceFillingCurve


def expand(schedule: str) -> np.ndarray:
    """Expand a schedule into the ``(n*n, 2)`` visit-order array.

    The schedule is consumed from the *finest* level outwards: start
    with the single-cell curve and repeatedly wrap it in one
    refinement step, ending with the coarsest (first) entry.  The final
    buffer is allocated once up front and every refinement step expands
    the child curve in place — child block 0 always sits at the start
    of the buffer, so blocks are written back-to-front and block 0 is
    transformed last, when the other blocks no longer read from it.
    """
    n = schedule_size(schedule)
    dtype = np.int32 if n * n < 2**31 else np.int64
    coords = np.empty((n * n, 2), dtype=dtype)
    coords[0] = 0
    size = 1
    count = 1
    for code in reversed(schedule):
        tpl = TEMPLATES[code]
        r = tpl.radix
        sub = coords[:count]
        for i in range(r * r - 1, -1, -1):
            bx, by = tpl.blocks[i]
            x, y = tpl.transforms[i].apply(sub[:, 0], sub[:, 1], size)
            dst = coords[i * count : (i + 1) * count]
            dst[:, 0] = x + bx * size
            dst[:, 1] = y + by * size
        size *= r
        count *= r * r
    return coords


def _with_index(schedule: str, coords: np.ndarray) -> SpaceFillingCurve:
    """The curve visiting ``coords`` in order, with its inverse index."""
    n = int(round(len(coords) ** 0.5))
    index = np.empty((n, n), dtype=coords.dtype)
    index[coords[:, 0], coords[:, 1]] = np.arange(n * n, dtype=coords.dtype)
    return SpaceFillingCurve(schedule=schedule, size=n, coords=coords, index=index)


def reference_curve(schedule: str) -> SpaceFillingCurve:
    """``generate_curve(schedule=schedule)`` by forward expansion."""
    return _with_index(schedule, expand(schedule))


def reference_morton_curve(level: int) -> SpaceFillingCurve:
    """``morton_curve(level)`` by de-interleaving each position's bits."""
    n = 2**level
    k = np.arange(n * n, dtype=np.int64)
    x = np.zeros_like(k)
    y = np.zeros_like(k)
    for bit in range(level):
        y |= ((k >> (2 * bit)) & 1) << bit
        x |= ((k >> (2 * bit + 1)) & 1) << bit
    return _with_index(f"morton:{level}", np.stack([x, y], axis=1))
