"""Historical (pre-batched) serial SEAM reference implementations.

These are verbatim snapshots of the per-element / einsum code paths
that :mod:`repro.seam.element`, :mod:`repro.seam.dss` and
:mod:`repro.seam.shallow_water` used before the batched engine
landed.  They are deliberately slow and kept only as golden oracles:

* the equivalence tests (``tests/seam/test_batched_golden.py``) assert
  the batched paths reproduce these results bit-identically or to
  <= 1e-12, and
* ``benchmarks/bench_shallow_water.py`` times them for the honest
  "before" column of the speedup table.
"""

from __future__ import annotations

import numpy as np

from repro.cubesphere.mesh import CubedSphereMesh
from repro.cubesphere.topology import FACES
from repro.seam.dss import PointMap, build_point_map
from repro.seam.element import ElementGeometry, GridGeometry
from repro.seam.gll import GLLBasis
from repro.seam.shallow_water import SWState

__all__ = [
    "ReferenceDSS",
    "ReferenceShallowWaterSolver",
    "reference_element_geometry",
]

Z_AXIS = np.array([0.0, 0.0, 1.0])


class ReferenceDSS:
    """The original ``np.add.at`` scatter DSS (scalar fields only).

    Velocity projection required a Python loop over components:
    ``np.stack([dss.apply(v[..., k]) for k in range(3)], axis=-1)`` —
    which is exactly what the batched operator's trailing component
    axes replace.
    """

    def __init__(self, geom: GridGeometry, point_map: PointMap | None = None):
        self.geom = geom
        self.point_map = (
            point_map if point_map is not None else build_point_map(geom)
        )
        w = geom.basis.weights
        w2 = w[:, None] * w[None, :]
        self.local_mass = np.stack([e.jac * w2 for e in geom.elements])
        self.global_mass = np.zeros(self.point_map.npoints)
        np.add.at(
            self.global_mass,
            self.point_map.point_ids.ravel(),
            self.local_mass.ravel(),
        )

    def apply(self, field: np.ndarray) -> np.ndarray:
        ids = self.point_map.point_ids.ravel()
        num = np.zeros(self.point_map.npoints)
        np.add.at(num, ids, (self.local_mass * field).ravel())
        avg = num / self.global_mass
        return avg[ids].reshape(field.shape)

    def apply_vector(self, vec: np.ndarray) -> np.ndarray:
        return np.stack(
            [self.apply(vec[..., k]) for k in range(3)], axis=-1
        )


class ReferenceShallowWaterSolver:
    """The original einsum/per-k shallow-water solver (golden oracle)."""

    def __init__(
        self,
        geom: GridGeometry,
        gravity: float = 1.0,
        omega: float = 1.0,
        dss: ReferenceDSS | None = None,
    ):
        self.geom = geom
        self.gravity = float(gravity)
        self.omega = float(omega)
        self.dss = dss if dss is not None else ReferenceDSS(geom)
        self.diff = geom.basis.diff
        self.jac = np.stack([e.jac for e in geom.elements])
        self.basis_a = np.stack([e.basis_a for e in geom.elements])
        self.basis_b = np.stack([e.basis_b for e in geom.elements])
        self.ginv = np.stack([e.ginv for e in geom.elements])
        self.rhat = np.stack([e.xyz for e in geom.elements])
        self.coriolis = 2.0 * self.omega * self.rhat[..., 2]

    def _d1(self, s: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ejb->eib", self.diff, s)

    def _d2(self, s: np.ndarray) -> np.ndarray:
        return np.einsum("ij,eaj->eai", self.diff, s)

    def gradient(self, s: np.ndarray) -> np.ndarray:
        cov1 = self._d1(s)
        cov2 = self._d2(s)
        c1 = self.ginv[..., 0, 0] * cov1 + self.ginv[..., 0, 1] * cov2
        c2 = self.ginv[..., 1, 0] * cov1 + self.ginv[..., 1, 1] * cov2
        return c1[..., None] * self.basis_a + c2[..., None] * self.basis_b

    def contravariant(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cov1 = np.einsum("...k,...k->...", vec, self.basis_a)
        cov2 = np.einsum("...k,...k->...", vec, self.basis_b)
        c1 = self.ginv[..., 0, 0] * cov1 + self.ginv[..., 0, 1] * cov2
        c2 = self.ginv[..., 1, 0] * cov1 + self.ginv[..., 1, 1] * cov2
        return c1, c2

    def divergence(self, vec: np.ndarray) -> np.ndarray:
        c1, c2 = self.contravariant(vec)
        return (self._d1(self.jac * c1) + self._d2(self.jac * c2)) / self.jac

    def advect_scalar(self, vec: np.ndarray, s: np.ndarray) -> np.ndarray:
        c1, c2 = self.contravariant(vec)
        return c1 * self._d1(s) + c2 * self._d2(s)

    def project_tangent(self, vec: np.ndarray) -> np.ndarray:
        radial = np.einsum("...k,...k->...", vec, self.rhat)
        return vec - radial[..., None] * self.rhat

    def rhs(self, state):
        v, h = state.v, state.h
        adv = np.stack(
            [self.advect_scalar(v, v[..., k]) for k in range(3)], axis=-1
        )
        cor = self.coriolis[..., None] * np.cross(self.rhat, v)
        dv = -adv - cor - self.gravity * self.gradient(h)
        dv = self.project_tangent(dv)
        dh = -self.divergence(h[..., None] * v)
        return SWState(v=dv, h=dh)

    def _project_state(self, state):
        v = self.dss.apply_vector(state.v)
        return SWState(v=self.project_tangent(v), h=self.dss.apply(state.h))

    def step(self, state, dt: float):
        s1 = self._project_state(state.axpy(dt, self.rhs(state)))
        mid = s1.axpy(dt, self.rhs(s1))
        s2 = self._project_state(
            SWState(
                v=0.75 * state.v + 0.25 * mid.v,
                h=0.75 * state.h + 0.25 * mid.h,
            )
        )
        end = s2.axpy(dt, self.rhs(s2))
        return self._project_state(
            SWState(
                v=state.v / 3.0 + (2.0 / 3.0) * end.v,
                h=state.h / 3.0 + (2.0 / 3.0) * end.h,
            )
        )


def reference_element_geometry(
    mesh: CubedSphereMesh, basis: GLLBasis, gid: int
) -> ElementGeometry:
    """Reference per-element construction (the historical scalar loop).

    The golden reference for the vectorized stack builder:
    ``repro.seam.element._build_stacks`` must reproduce these arrays
    bit-for-bit (``tests/seam/test_batched_golden.py``).
    """
    face, ix, iy = mesh.locate(gid)
    ne = mesh.ne
    f = FACES[face]
    n = np.array(f.normal, dtype=np.float64)
    ex = np.array(f.ex, dtype=np.float64)
    ey = np.array(f.ey, dtype=np.float64)
    # Abstract local coordinate of each GLL node: a = 2*(ix + t)/ne - 1
    # with t in [0, 1]; the same expression on both sides of an
    # element interface makes shared points bit-identical.
    t = (basis.nodes + 1.0) / 2.0
    a = 2.0 * (ix + t) / ne - 1.0  # (np,)
    b = 2.0 * (iy + t) / ne - 1.0
    alpha = a * (np.pi / 4.0)
    beta = b * (np.pi / 4.0)
    x_ = np.tan(alpha)[:, None]  # X(alpha), broadcast over j
    y_ = np.tan(beta)[None, :]
    p = (
        n[None, None, :]
        + x_[..., None] * ex[None, None, :]
        + y_[..., None] * ey[None, None, :]
    )
    delta = np.linalg.norm(p, axis=-1)
    r = p / delta[..., None]
    # d r / d alpha = (1 + X^2) * (ex - r (r . ex)) / delta, then chain
    # rule to reference coords: d alpha / d xi = (pi/4) * (1/ne) * ...
    # a = 2 (ix + (xi+1)/2)/ne - 1  =>  da/dxi = 1/ne.
    dalpha_dxi = (np.pi / 4.0) / ne
    sec2a = 1.0 + x_**2  # sec^2(alpha) = 1 + tan^2
    sec2b = 1.0 + y_**2
    r_dot_ex = np.einsum("ijk,k->ij", r, ex)
    r_dot_ey = np.einsum("ijk,k->ij", r, ey)
    dra = (sec2a[..., None] * (ex[None, None, :] - r * r_dot_ex[..., None])) / delta[
        ..., None
    ]
    drb = (sec2b[..., None] * (ey[None, None, :] - r * r_dot_ey[..., None])) / delta[
        ..., None
    ]
    basis_a = dra * dalpha_dxi
    basis_b = drb * dalpha_dxi
    g11 = np.einsum("ijk,ijk->ij", basis_a, basis_a)
    g12 = np.einsum("ijk,ijk->ij", basis_a, basis_b)
    g22 = np.einsum("ijk,ijk->ij", basis_b, basis_b)
    det = g11 * g22 - g12 * g12
    jac = np.sqrt(det)
    ginv = np.empty(g11.shape + (2, 2))
    ginv[..., 0, 0] = g22 / det
    ginv[..., 1, 1] = g11 / det
    ginv[..., 0, 1] = -g12 / det
    ginv[..., 1, 0] = -g12 / det
    return ElementGeometry(
        gid=gid, xyz=r, basis_a=basis_a, basis_b=basis_b, jac=jac, ginv=ginv
    )
