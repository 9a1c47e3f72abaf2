"""Forward cubed-sphere curve construction: the element keys' golden oracle.

The library defines the global curve by its keys
(:func:`repro.cubesphere.curve.element_keys`) and materializes
:class:`~repro.cubesphere.curve.CubedSphereCurve` by inverting them.
:func:`reference_cubed_sphere_curve` builds it forward instead, as the
paper draws it (Fig. 6): search a face chain on the mesh itself, then
lay the forward-expanded face curve (``tests/sfc/reference_curve.py``)
onto each face in chain order, under that face's orientation.

``benchmarks/bench_sfc_keys.py`` cuts this construction as the O(K)
materialized side of its memory comparison.
"""

from __future__ import annotations

import numpy as np

from repro.cubesphere.curve import CubedSphereCurve, find_face_chain
from repro.cubesphere.mesh import cubed_sphere_mesh
from repro.sfc.factorization import default_schedule
from tests.sfc.reference_curve import expand


def reference_cubed_sphere_curve(
    ne: int, schedule: str | None = None
) -> CubedSphereCurve:
    """``cubed_sphere_curve(ne, schedule)`` by forward construction.

    The chain comes from a fresh :func:`find_face_chain` on the ``ne``
    mesh, so at ``ne = 1`` its orientations may differ from the
    canonical chain's; the element order does not.
    """
    if schedule is None:
        schedule = default_schedule(ne)
    mesh = cubed_sphere_mesh(ne)
    chain = find_face_chain(mesh)
    dtype = np.int32 if mesh.nelem < 2**31 else np.int64
    coords = expand(schedule).astype(np.int64)
    pieces = []
    for face, tr in zip(chain.faces, chain.transforms):
        cells = tr.apply_points(coords, ne)
        pieces.append(mesh.gids(face, cells[:, 0], cells[:, 1]))
    order = np.concatenate(pieces).astype(dtype, copy=False)
    position = np.empty(mesh.nelem, dtype=dtype)
    position[order] = np.arange(mesh.nelem, dtype=dtype)
    return CubedSphereCurve(
        mesh=mesh, schedule=schedule, chain=chain, order=order, position=position
    )
