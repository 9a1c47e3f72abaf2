"""Hilbert, m-Peano and Hilbert-Peano curves, materialized from their keys.

A refinement schedule (see :mod:`repro.sfc.factorization`) defines its
curve through one function, :func:`repro.sfc.keys.curve_keys`, which
maps each cell ``(x, y)`` of the ``n x n`` domain to its position along
the curve.  :func:`generate_curve` keys every cell once and inverts
that permutation into the visit order, so the materialized curve and
the keyed path that partitions are one definition.  The paper's forward
construction (Fig. 3), which wraps the child curve in one refinement
level at a time, is kept only as the test oracle in
``tests/sfc/reference_curve.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..memo import StageCache
from ..telemetry import span
from .factorization import default_schedule, schedule_size
from .keys import curve_keys

__all__ = [
    "SpaceFillingCurve",
    "generate_curve",
    "hilbert_curve",
    "peano_curve",
    "hilbert_peano_curve",
]


@dataclass(frozen=True)
class SpaceFillingCurve:
    """A generated space-filling curve over an ``n x n`` cell grid.

    Attributes:
        schedule: Refinement schedule that produced the curve, coarsest
            level first (e.g. ``"PHH"`` for a 12x12 Hilbert-Peano).
        size: Side length ``n`` of the domain.
        coords: ``(n*n, 2)`` int array; ``coords[k]`` is the ``(x, y)``
            cell visited at curve position ``k``.
        index: ``(n, n)`` int array; ``index[x, y]`` is the curve
            position of cell ``(x, y)`` (inverse of :attr:`coords`).
    """

    schedule: str
    size: int
    coords: np.ndarray
    index: np.ndarray

    def __post_init__(self) -> None:
        self.coords.setflags(write=False)
        self.index.setflags(write=False)

    def __len__(self) -> int:
        return self.size * self.size

    def position_of(self, x: int, y: int) -> int:
        """Curve position of cell ``(x, y)``."""
        return int(self.index[x, y])

    def cell_at(self, k: int) -> tuple[int, int]:
        """Cell visited at curve position ``k``."""
        x, y = self.coords[k]
        return int(x), int(y)

    @property
    def entry(self) -> tuple[int, int]:
        """First cell on the curve (canonical: ``(0, 0)``)."""
        return self.cell_at(0)

    @property
    def exit(self) -> tuple[int, int]:
        """Last cell on the curve (canonical: ``(n - 1, 0)``)."""
        return self.cell_at(len(self) - 1)

    def step_lengths(self) -> np.ndarray:
        """Manhattan distance between consecutive cells (all 1 for a
        valid curve — exposed for tests and locality analysis)."""
        d = np.abs(np.diff(self.coords.astype(np.int64), axis=0))
        return d.sum(axis=1)

    def render(self) -> str:
        """ASCII rendering of visit order, origin at bottom-left."""
        n = self.size
        width = len(str(n * n - 1))
        rows = []
        for y in range(n - 1, -1, -1):
            rows.append(
                " ".join(f"{int(self.index[x, y]):>{width}d}" for x in range(n))
            )
        return "\n".join(rows)


def _from_keys(
    schedule: str, n: int, keys_of: Callable, dtype: type
) -> SpaceFillingCurve:
    """The curve whose cell ``(x, y)`` lies at position ``keys_of(x, y)``.

    Keys every cell of the ``n x n`` grid once: laid out on the grid
    the keys are :attr:`SpaceFillingCurve.index`, and scattering each
    cell to its key inverts them into :attr:`SpaceFillingCurve.coords`.
    """
    cells = np.arange(n, dtype=np.int64)
    x, y = np.repeat(cells, n), np.tile(cells, n)  # row-major (n, n) grid
    index = keys_of(x, y).astype(dtype).reshape(n, n)
    coords = np.empty((n * n, 2), dtype=dtype)
    coords[index.ravel(), 0] = x
    coords[index.ravel(), 1] = y
    return SpaceFillingCurve(schedule=schedule, size=n, coords=coords, index=index)


#: Face curves of this process, one per schedule.
_FACE_CURVE_MEMO = StageCache("face_curve", maxsize=64)


def _build_face_curve(schedule: str) -> SpaceFillingCurve:
    """Uncached curve construction (the ``face_curve`` memo's miss path)."""
    n = schedule_size(schedule)
    with span("generate_curve", "sfc", schedule=schedule, size=n):
        # int32 halves the curve's memory whenever positions fit.
        return _from_keys(
            schedule,
            n,
            lambda x, y: curve_keys(x, y, schedule=schedule, check=False),
            np.int32 if n * n < 2**31 else np.int64,
        )


def generate_curve(
    size: int | None = None, *, schedule: str | None = None
) -> SpaceFillingCurve:
    """Generate a space-filling curve.

    Exactly one of ``size`` and ``schedule`` selects the curve: a size
    is expanded with the paper's default Peano-first schedule; an
    explicit schedule string (coarsest level first) gives full control
    over nesting order for the refinement-order ablation.

    Args:
        size: Domain side length, must be of the form ``2^n * 3^m``.
        schedule: Refinement schedule over ``{"H", "P"}``.

    Returns:
        The generated :class:`SpaceFillingCurve`.

    Raises:
        ValueError: On inadmissible sizes, unknown schedule codes, or
            if both/neither selector is given.
    """
    if (size is None) == (schedule is None):
        raise ValueError("pass exactly one of `size` or `schedule`")
    if schedule is None:
        assert size is not None
        schedule = default_schedule(size)
    return _FACE_CURVE_MEMO.get_or_compute(
        (schedule,), lambda: _build_face_curve(schedule)
    )


def hilbert_curve(level: int) -> SpaceFillingCurve:
    """Hilbert curve of the given recursion level (size ``2**level``)."""
    if level < 0:
        raise ValueError("level must be non-negative")
    return generate_curve(schedule="H" * level)


def peano_curve(level: int) -> SpaceFillingCurve:
    """Meandering Peano curve of the given level (size ``3**level``)."""
    if level < 0:
        raise ValueError("level must be non-negative")
    return generate_curve(schedule="P" * level)


def hilbert_peano_curve(hilbert_level: int, peano_level: int) -> SpaceFillingCurve:
    """Nested Hilbert-Peano curve of size ``2**n * 3**m``.

    Follows the paper's construction order: the m-Peano refinements are
    applied first (coarsest), then the Hilbert refinements (Fig. 5).
    """
    if hilbert_level < 0 or peano_level < 0:
        raise ValueError("levels must be non-negative")
    return generate_curve(schedule="P" * peano_level + "H" * hilbert_level)
