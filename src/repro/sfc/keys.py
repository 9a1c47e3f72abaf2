"""Bitwise uint64 SFC keying: coordinates → curve positions, no curve.

This module is the one definition of every curve the package serves:
it computes each cell's curve position *directly from its coordinates*,
the way Cubism's bit-twiddling Hilbert transpose and Cornerstone's
``sfcKey()`` encoding do (and Borrell et al.'s parallel SFC partitioner
assumes): a vectorized per-level decode of the refinement schedule
using integer table lookups, O(levels) passes over the coordinate
arrays and O(1) memory beyond them.  The partition path streams these
keys and never builds a curve; where a whole curve is wanted,
:func:`repro.sfc.generator.generate_curve` and
:func:`repro.sfc.baselines.morton_curve` key every cell and invert the
permutation.

The decode runs the paper's recursion (Fig. 3) backwards, one level at
a time.  At a level of radix ``r`` with child block size ``s``, the
block coordinates ``(x // s, y // s)`` identify which child the cell
lies in; the child's visit rank contributes ``rank * s*s`` to the key;
and the child's inverse D4 transform maps the cell into the child's
canonical frame for the next level.  The result is *bit-identical* to
the forward construction kept in ``tests/sfc/reference_curve.py``
(golden-tested at every admissible size).

The decode runs in the C kernels ``sfc_keys`` (and ``sfc_face_keys``
for the chained cube faces) of ``_kernels.c``, over the packed level
tables built here; a vectorized NumPy restatement is kept as their
test oracle in ``tests/sfc/reference_keys.py``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .._native import LIB, as_i64p
from ..memo import StageCache
from .curves import TEMPLATES, CurveTemplate
from .factorization import default_schedule, schedule_size

__all__ = [
    "KEY_DTYPE",
    "KeyTables",
    "curve_keys",
    "morton_keys",
    "schedule_tables",
]

#: Dtype of every key array this module produces.
KEY_DTYPE = np.dtype(np.uint64)

_U64P = ctypes.POINTER(ctypes.c_uint64)

# Packed level-table layout, shared with the C kernel (see the
# ``sfc_keys`` comment in ``_kernels.c``).  One row of ``_STRIDE``
# int64 slots per refinement level, coarsest first:
#
#   [_OFF_R]      radix r of this level (2 or 3)
#   [_OFF_S]      child block size s = n / (product of radices so far)
#   [_OFF_SHIFT]  log2(s) when s is a power of two, else -1 (the C
#                 kernel divides by shifting whenever it can)
#   [_OFF_RANK  + bx*3 + by]  visit rank of child block (bx, by)
#   [_OFF_MXX.._OFF_MYY + i]  inverse-transform matrix of child i
#   [_OFF_XNEG/_OFF_YNEG + i] 1 when the row of the inverse matrix
#                 sums negative (the ``s - 1`` offset applies)
#
# Block coordinates are indexed with a fixed stride of 3 (the maximum
# radix) so the layout is radix-independent.
_OFF_R = 0
_OFF_S = 1
_OFF_SHIFT = 2
_OFF_RANK = 3
_OFF_MXX = 12
_OFF_MXY = 21
_OFF_MYX = 30
_OFF_MYY = 39
_OFF_XNEG = 48
_OFF_YNEG = 57
_STRIDE = 66


@dataclass(frozen=True)
class KeyTables:
    """Packed per-level decode tables for one refinement schedule.

    Attributes:
        schedule: The refinement schedule (coarsest level first).
        size: Domain side length ``n = schedule_size(schedule)``.
        tables: ``(nlevels, _STRIDE)`` int64 array in the layout above.
    """

    schedule: str
    size: int
    tables: np.ndarray

    def __post_init__(self) -> None:
        self.tables.setflags(write=False)

    @property
    def nlevels(self) -> int:
        return self.tables.shape[0]


#: Packed decode tables of this process, one per schedule.
_TABLES_MEMO = StageCache("key_tables", maxsize=128)


def schedule_tables(schedule: str) -> KeyTables:
    """The packed decode tables for a schedule (the ``key_tables`` memo)."""
    return _TABLES_MEMO.get_or_compute(
        (schedule,), lambda: _build_tables(schedule)
    )


def _build_tables(schedule: str) -> KeyTables:
    for code in schedule:
        if code not in ("H", "P"):
            raise ValueError(f"unknown refinement code {code!r}")
    n = schedule_size(schedule)
    tables = np.zeros((len(schedule), _STRIDE), dtype=np.int64)
    s = n
    for lvl, code in enumerate(schedule):
        tpl: CurveTemplate = TEMPLATES[code]
        r = tpl.radix
        s //= r
        row = tables[lvl]
        row[_OFF_R] = r
        row[_OFF_S] = s
        row[_OFF_SHIFT] = s.bit_length() - 1 if s & (s - 1) == 0 else -1
        for i, (bx, by) in enumerate(tpl.blocks):
            row[_OFF_RANK + bx * 3 + by] = i
        for i, tr in enumerate(tpl.transforms):
            inv = tr.inverse()
            row[_OFF_MXX + i] = inv.mxx
            row[_OFF_MXY + i] = inv.mxy
            row[_OFF_MYX + i] = inv.myx
            row[_OFF_MYY + i] = inv.myy
            row[_OFF_XNEG + i] = 1 if inv.mxx + inv.mxy < 0 else 0
            row[_OFF_YNEG + i] = 1 if inv.myx + inv.myy < 0 else 0
    return KeyTables(
        schedule=schedule,
        size=n,
        tables=np.ascontiguousarray(tables),
    )


def _keys_c(x: np.ndarray, y: np.ndarray, kt: KeyTables) -> np.ndarray:
    """C-kernel decode of int64 coordinate arrays."""
    keys = np.empty(x.shape[0], dtype=KEY_DTYPE)
    LIB.sfc_keys(
        x.shape[0],
        kt.nlevels,
        as_i64p(kt.tables),
        kt.size,
        as_i64p(x),
        as_i64p(y),
        keys.ctypes.data_as(_U64P),
    )
    return keys


def _face_keys_c(
    gids: np.ndarray,
    ne: int,
    kt: KeyTables,
    rank: np.ndarray,
    coef: np.ndarray,
) -> np.ndarray:
    """Fused gid → global-key C decode (cubed-sphere face chaining).

    One register-resident pass: gid → face + face-local cell →
    chain-oriented coordinates → per-level decode → chain offset.
    """
    keys = np.empty(gids.shape[0], dtype=KEY_DTYPE)
    LIB.sfc_face_keys(
        gids.shape[0],
        kt.nlevels,
        as_i64p(kt.tables),
        ne,
        as_i64p(rank),
        as_i64p(coef),
        as_i64p(gids),
        keys.ctypes.data_as(_U64P),
    )
    return keys


def _as_coord_array(a, n: int, name: str, check: bool) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.int64).ravel()
    if check and arr.size and not (0 <= arr.min() and arr.max() < n):
        raise ValueError(f"{name} coordinates must lie in [0, {n})")
    return arr


def curve_keys(
    x,
    y,
    *,
    size: int | None = None,
    schedule: str | None = None,
    check: bool = True,
) -> np.ndarray:
    """Curve positions of cells ``(x, y)``, straight from coordinates.

    ``generate_curve(...).index[x, y]`` is these keys laid out on the
    grid; this never materializes the curve: O(levels) vectorized
    passes over the coordinate arrays.

    Args:
        x: Cell x-coordinates (any shape; int-like).
        y: Cell y-coordinates (same shape as ``x``).
        size: Domain side length (expanded with the paper's default
            Peano-first schedule); exactly one of ``size``/``schedule``.
        schedule: Explicit refinement schedule (coarsest first).
        check: Validate coordinate bounds (two cheap passes).

    Returns:
        uint64 key array of the same shape as ``x``; ``keys[k]`` is the
        curve position of cell ``(x[k], y[k])`` in ``[0, n*n)``.
    """
    if (size is None) == (schedule is None):
        raise ValueError("pass exactly one of `size` or `schedule`")
    if schedule is None:
        assert size is not None
        schedule = default_schedule(size)
    kt = schedule_tables(schedule)
    shape = np.shape(x)
    if np.shape(y) != shape:
        raise ValueError("x and y must have the same shape")
    xs = _as_coord_array(x, kt.size, "x", check)
    ys = _as_coord_array(y, kt.size, "y", check)
    return _keys_c(xs, ys, kt).reshape(shape)


def morton_keys(x, y, size: int, *, check: bool = True) -> np.ndarray:
    """Morton (Z-order) keys: interleave the bits of ``y`` (even bit
    positions) and ``x`` (odd): the visit order of
    :func:`repro.sfc.baselines.morton_curve`.

    Z-order is cheaper than Hilbert but *discontinuous* — consecutive
    keys may be far apart, so Morton cannot chain the six cube faces
    into one continuous curve (see the curve-baselines ablation).

    Args:
        x: Cell x-coordinates (any shape; int-like).
        y: Cell y-coordinates (same shape).
        size: Domain side length; must be a power of two.
        check: Validate coordinate bounds.

    Returns:
        uint64 key array, same shape as ``x``.
    """
    if size < 1 or size & (size - 1):
        raise ValueError(f"morton keys need a power-of-two size, got {size}")
    shape = np.shape(x)
    if np.shape(y) != shape:
        raise ValueError("x and y must have the same shape")
    xs = _as_coord_array(x, size, "x", check).astype(KEY_DTYPE)
    ys = _as_coord_array(y, size, "y", check).astype(KEY_DTYPE)
    keys = np.zeros(xs.shape, dtype=KEY_DTYPE)
    one = np.uint64(1)
    for bit in range(size.bit_length() - 1):
        b = np.uint64(bit)
        keys |= ((ys >> b) & one) << np.uint64(2 * bit)
        keys |= ((xs >> b) & one) << np.uint64(2 * bit + 1)
    return keys.reshape(shape)
