"""The materialized SFC cut: the keyed cut's golden oracle.

:func:`partition_curve` is the paper's construction taken literally:
build the whole global curve (O(K) arrays; the forward construction in
``tests/cubesphere/reference_curve.py`` keeps it independent of the
keys), cut its traversal order into segments, and scatter the owners
back to element ids.  The library only cuts by streaming keys
(:func:`repro.partition.sfc.keyed_cut`); this copy stays here so

* ``tests/partition/test_sfc.py`` can assert the keyed cut is
  bit-identical to it, and
* ``benchmarks/bench_sfc_keys.py`` can time and measure it as the
  materialized side of its memory comparison.
"""

from __future__ import annotations

import numpy as np

from repro.cubesphere.curve import CubedSphereCurve
from repro.partition.base import Partition
from repro.partition.sfc import cut_positions_uniform, cut_positions_weighted


def partition_curve(
    curve: CubedSphereCurve,
    nparts: int,
    weights: np.ndarray | None = None,
) -> Partition:
    """Partition a cubed-sphere mesh by cutting its global curve.

    Args:
        curve: Global SFC over the mesh (``reference_cubed_sphere_curve``
            or :func:`cubed_sphere_curve`).
        nparts: Number of processors.
        weights: Optional per-*element* (gid-indexed) weights; when
            given, cuts balance weight rather than element count.

    Returns:
        A :class:`Partition` labeled ``"sfc"``.
    """
    ncells = len(curve)
    if weights is None:
        bounds = cut_positions_uniform(ncells, nparts)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != ncells:
            raise ValueError("weights must have one entry per element")
        bounds = cut_positions_weighted(weights[curve.order], nparts)
    owner_along_curve = np.empty(ncells, dtype=np.int64)
    for p in range(nparts):
        owner_along_curve[bounds[p] : bounds[p + 1]] = p
    assignment = np.empty(ncells, dtype=np.int64)
    assignment[curve.order] = owner_along_curve
    return Partition(assignment, nparts=nparts, method="sfc")

