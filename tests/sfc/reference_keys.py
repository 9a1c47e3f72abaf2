"""Vectorized NumPy oracles of the compiled SFC key kernels.

``repro.sfc.keys.curve_keys`` and ``repro.cubesphere.curve.element_keys``
decode in C (``sfc_keys``, ``sfc_face_keys``).  These NumPy statements of
the same per-level decode, over the same packed level tables, must give
the same uint64 keys; they exist only as test oracles.
"""

from __future__ import annotations

import numpy as np

from repro.cubesphere.curve import _chain_key_tables
from repro.sfc.factorization import default_schedule
from repro.sfc.keys import (
    _OFF_MXX,
    _OFF_MXY,
    _OFF_MYX,
    _OFF_MYY,
    _OFF_R,
    _OFF_RANK,
    _OFF_S,
    _OFF_XNEG,
    _OFF_YNEG,
    KEY_DTYPE,
    KeyTables,
    schedule_tables,
)


def keys_numpy(x: np.ndarray, y: np.ndarray, kt: KeyTables) -> np.ndarray:
    """Generic vectorized decode: any mixed Hilbert/Peano schedule."""
    u = np.asarray(x, dtype=np.int64).copy()
    v = np.asarray(y, dtype=np.int64).copy()
    keys = np.zeros(u.shape, dtype=KEY_DTYPE)
    for row in kt.tables:
        r = int(row[_OFF_R])
        s = int(row[_OFF_S])
        bx = u // s
        by = v // s
        i = row[_OFF_RANK + bx * 3 + by]
        keys = keys * np.uint64(r * r) + i.astype(KEY_DTYPE)
        u -= bx * s
        v -= by * s
        un = row[_OFF_MXX + i] * u + row[_OFF_MXY + i] * v + row[_OFF_XNEG + i] * (s - 1)
        v = row[_OFF_MYX + i] * u + row[_OFF_MYY + i] * v + row[_OFF_YNEG + i] * (s - 1)
        u = un
    return keys


def element_keys_numpy(ne: int, schedule: str | None = None) -> np.ndarray:
    """Global curve position of every element: each face's cells in
    their chain orientation, decoded, offset by the face's chain rank."""
    schedule = schedule or default_schedule(ne)
    n2 = ne * ne
    rank, coef = _chain_key_tables()
    face, rem = np.divmod(np.arange(6 * n2, dtype=np.int64), n2)
    iy, ix = np.divmod(rem, ne)
    c = coef[face]
    u = c[:, 0] * ix + c[:, 1] * iy + c[:, 4] * (ne - 1)
    v = c[:, 2] * ix + c[:, 3] * iy + c[:, 5] * (ne - 1)
    keys = keys_numpy(u, v, schedule_tables(schedule))
    return keys + rank[face].astype(KEY_DTYPE) * np.uint64(n2)
