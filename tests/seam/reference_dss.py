"""NumPy oracle of the compiled serial DSS kernel (``dss_apply``).

:class:`repro.seam.dss.DSSOperator` projects in C.  This restatement
over the operator's own boundary compaction (interior points copy
through; boundary copies scatter by weighted ``np.bincount``, which
accumulates in ascending index order like the kernel's loop, scale by
the reciprocal boundary mass and gather back) must match it bit for
bit; it exists only as that oracle.
"""

from __future__ import annotations

import numpy as np

from repro.seam.dss import DSSOperator


def apply_numpy(op: DSSOperator, field: np.ndarray) -> np.ndarray:
    """``op.apply(field)`` for a float64 ``(nelem, np, np[, comps])`` field."""
    out = field.copy()
    ncomp = int(np.prod(field.shape[3:], dtype=np.int64))
    flat = field.reshape(op._n_local, ncomp)
    weighted = op._bmass[:, None] * flat[op._bidx]
    # The boundary point of every boundary copy, from the segments.
    bids = np.repeat(np.arange(op._nbpoints), np.diff(op._seg))
    num = np.empty((op._nbpoints, ncomp))
    for c in range(ncomp):
        num[:, c] = np.bincount(
            bids, weights=weighted[:, c], minlength=op._nbpoints
        )
    np.multiply(num, op._inv_bgmass[:, None], out=num)
    out.reshape(op._n_local, ncomp)[op._bidx] = num[bids]
    return out
