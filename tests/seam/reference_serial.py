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

:func:`reference_transport_step` and :func:`reference_sw_step` are the
NumPy SSP-RK3 steps of the batched solvers from before each stage was
formed by the ``rk3_stage`` kernel; ``tests/seam/test_rk3_stage.py``
asserts the solvers' steps are bit-identical to them.
:func:`reference_transport_rhs` is ``TransportSolver.rhs`` as NumPy
passes, from before the ``transport_rhs`` kernel computed it;
``tests/seam/test_transport_rhs.py`` holds the kernel to it.
"""

from __future__ import annotations

import numpy as np

from repro.cubesphere.mesh import CubedSphereMesh
from repro.cubesphere.topology import FACES
from repro.seam.dss import PointMap, build_point_map
from repro.seam.element import ElementGeometry, GridGeometry
from repro.seam.gll import GLLBasis
from repro.seam.shallow_water import ShallowWaterSolver, SWState
from repro.seam.transport import TransportSolver

__all__ = [
    "ReferenceDSS",
    "ReferenceShallowWaterSolver",
    "reference_contravariant_wind",
    "reference_element_geometry",
    "reference_sw_step",
    "reference_transport_rhs",
    "reference_transport_step",
]


def reference_contravariant_wind(e: ElementGeometry, u_cart: np.ndarray) -> np.ndarray:
    """``(np, np, 2)`` contravariant components ``(u^1, u^2)`` of a
    ``(np, np, 3)`` Cartesian tangent wind on one element."""
    cov1 = np.einsum("ijk,ijk->ij", u_cart, e.basis_a)
    cov2 = np.einsum("ijk,ijk->ij", u_cart, e.basis_b)
    cov = np.stack([cov1, cov2], axis=-1)
    return np.einsum("ijab,ijb->ija", e.ginv, cov)


def reference_transport_rhs(solver: TransportSolver, q: np.ndarray) -> np.ndarray:
    """``TransportSolver.rhs`` as six NumPy passes.

    The flux products, the ``dxi_1`` derivative as ``diff`` broadcast
    over the element stack (a batched matmul), the ``dxi_2`` derivative
    as one ``(nelem*np, np)`` GEMM against ``diff.T``, their sum, and
    the product with ``-1/J`` into a new array.
    """
    fu = solver.flux_u * q
    fv = solver.flux_v * q
    npts = fv.shape[-1]
    dfu = np.matmul(solver.diff, fu)
    dfv = np.empty_like(fv)
    np.matmul(
        fv.reshape(-1, npts),
        np.ascontiguousarray(solver.diff.T),
        out=dfv.reshape(-1, npts),
    )
    np.add(dfu, dfv, out=dfu)
    return dfu * (-1.0 / solver.jac)


def reference_transport_step(
    solver: TransportSolver, q: np.ndarray, dt: float
) -> np.ndarray:
    """``TransportSolver.step`` with its stages as NumPy temporaries."""
    dss = solver.dss
    q1 = dss.apply(q + dt * solver.rhs(q))
    q2 = dss.apply(0.75 * q + 0.25 * (q1 + dt * solver.rhs(q1)))
    return dss.apply(q / 3.0 + 2.0 / 3.0 * (q2 + dt * solver.rhs(q2)))


def reference_sw_step(solver: ShallowWaterSolver, state: SWState, dt: float) -> SWState:
    """``ShallowWaterSolver.step`` as 24 in-place NumPy operations."""
    kv, kh, sv, sh = solver._kv, solver._kh, solver._sv, solver._sh
    # Stage 1: s = P(state + dt k1).
    solver._rhs_into(state.v, state.h, kv, kh)
    np.multiply(kv, dt, out=kv)
    np.add(state.v, kv, out=sv)
    np.multiply(kh, dt, out=kh)
    np.add(state.h, kh, out=sh)
    solver._project_state_inplace(sv, sh)
    # Stage 2: s = P(3/4 state + 1/4 (s + dt k2)).
    solver._rhs_into(sv, sh, kv, kh)
    np.multiply(kv, dt, out=kv)
    np.add(sv, kv, out=kv)
    np.multiply(kv, 0.25, out=kv)
    np.multiply(state.v, 0.75, out=sv)
    np.add(sv, kv, out=sv)
    np.multiply(kh, dt, out=kh)
    np.add(sh, kh, out=kh)
    np.multiply(kh, 0.25, out=kh)
    np.multiply(state.h, 0.75, out=sh)
    np.add(sh, kh, out=sh)
    solver._project_state_inplace(sv, sh)
    # Stage 3: P(1/3 state + 2/3 (s + dt k3)), freshly allocated.
    out_v = np.empty(state.v.shape)
    out_h = np.empty(state.h.shape)
    solver._rhs_into(sv, sh, kv, kh)
    np.multiply(kv, dt, out=kv)
    np.add(sv, kv, out=kv)
    np.multiply(kv, 2.0 / 3.0, out=kv)
    np.divide(state.v, 3.0, out=out_v)
    np.add(out_v, kv, out=out_v)
    np.multiply(kh, dt, out=kh)
    np.add(sh, kh, out=kh)
    np.multiply(kh, 2.0 / 3.0, out=kh)
    np.divide(state.h, 3.0, out=out_h)
    np.add(out_h, kh, out=out_h)
    solver._project_state_inplace(out_v, out_h)
    return SWState(v=out_v, h=out_h)

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
            point_map if point_map is not None else build_point_map(geom.mesh.ne, geom.npts)
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
