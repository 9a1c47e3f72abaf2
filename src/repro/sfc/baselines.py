"""Baseline orderings: boustrophedon scanlines and Morton (Z-order).

The Hilbert/m-Peano curves earn their complexity by being *continuous*
(consecutive cells are grid neighbors) *and* local (segments are
compact).  These two classical orderings each drop one property and
anchor the locality comparison:

* **boustrophedon** (serpentine scanline) — continuous but stringy:
  equal segments are full-width strips with terrible surface-to-volume;
* **Morton / Z-order** — locality comparable to Hilbert but *not*
  continuous (the "Z" jumps), so it cannot be chained across cube faces
  into the paper's single continuous curve, and segment boundaries can
  be split across distant blocks.

Both are returned as :class:`repro.sfc.generator.SpaceFillingCurve`
instances so the analysis and partitioning machinery applies unchanged.
"""

from __future__ import annotations

import numpy as np

from .generator import SpaceFillingCurve, _from_keys
from .keys import morton_keys

__all__ = ["boustrophedon_curve", "morton_curve", "is_continuous_ordering"]


def boustrophedon_curve(size: int) -> SpaceFillingCurve:
    """Serpentine column scan: up column 0, down column 1, ...

    Continuous for every ``size >= 1`` (unlike the self-similar curves
    it has no size restriction), but each equal segment is a strip.
    """
    if size < 1:
        raise ValueError("size must be positive")
    xs = np.repeat(np.arange(size), size)
    ys = np.tile(np.arange(size), size)
    # Reverse y on odd columns.
    odd = xs % 2 == 1
    ys = np.where(odd, size - 1 - ys, ys)
    coords = np.stack([xs, ys], axis=1).astype(np.int64)
    index = np.empty((size, size), dtype=np.int64)
    index[coords[:, 0], coords[:, 1]] = np.arange(size * size)
    return SpaceFillingCurve(
        schedule=f"boustrophedon:{size}", size=size, coords=coords, index=index
    )


def morton_curve(level: int) -> SpaceFillingCurve:
    """Morton (Z-order) curve of side ``2**level``.

    Materialized from :func:`repro.sfc.keys.morton_keys`, which
    interleaves the bits of x and y.  NOT continuous: consecutive curve
    positions may be far apart (tested), which is exactly why the paper
    needs Hilbert rather than the cheaper Morton order.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    n = 2**level
    return _from_keys(
        f"morton:{level}",
        n,
        lambda x, y: morton_keys(x, y, n, check=False),
        np.int64,
    )


def is_continuous_ordering(curve: SpaceFillingCurve) -> bool:
    """Whether consecutive cells are always grid neighbors."""
    if len(curve) < 2:
        return True
    return bool((curve.step_lengths() == 1).all())
