"""Reference DSS point map: shared GLL points found by float rounding.

The historical ``build_point_map``: element-local GLL positions on the
unit sphere are rounded to ``ROUND_DECIMALS`` decimals, quantized to
int64 and numbered in lexicographic ``(x, y, z)`` order.  It is the
oracle for the integer-lattice map of :func:`repro.seam.build_point_map`,
which must give the same partition of element-local points into shared
points (``tests/seam/test_dss.py::TestPointMapIds``).
"""

from __future__ import annotations

import numpy as np

from repro.seam.dss import PointMap
from repro.seam.element import GridGeometry

ROUND_DECIMALS = 9


def reference_point_map(geom: GridGeometry) -> PointMap:
    """Identify shared GLL points by their rounded unit-sphere positions."""
    flat = np.round(geom.xyz.reshape(-1, 3), ROUND_DECIMALS)
    quant = np.round(flat * 10**ROUND_DECIMALS).astype(np.int64)
    order = np.lexsort((quant[:, 2], quant[:, 1], quant[:, 0]))
    rows = quant[order]
    new_run = np.empty(len(rows), dtype=bool)
    new_run[:1] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=new_run[1:])
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new_run) - 1
    npoints = int(np.count_nonzero(new_run))
    npts = geom.npts
    point_ids = inverse.reshape(geom.nelem, npts, npts)
    multiplicity = np.bincount(inverse, minlength=npoints).astype(np.int64)
    return PointMap(point_ids=point_ids, npoints=npoints, multiplicity=multiplicity)
