"""Nonlinear shallow-water equations on the cubed-sphere.

SEAM descends from the spectral-element shallow-water model of Taylor,
Tribbia & Iskandarani (1997) — the paper's reference [9].  This module
completes the numerical substrate with that system, solved in the
3-D Cartesian vector form that keeps cross-face continuity trivial
(each Cartesian velocity component is a scalar, so the scalar DSS
applies componentwise; tangency is enforced by projection):

    dv/dt = -(v . grad) v - f (rhat x v) - g grad(h),   v tangent
    dh/dt = -div(h v)

with ``f = 2 Omega (rhat . z)`` the Coriolis parameter on the unit
sphere.  Surface gradient/divergence come from the stacked per-element
metric machinery of :mod:`repro.seam.element`; time stepping is SSP
RK3 with DSS projection per stage, as in the transport solver.

The dynamical core is batched: all differential operators run as BLAS
matmuls over ``(np, nelem*np)``-shaped blocks of the geometry stacks,
the RK3 stages reuse preallocated workspace buffers, and one fused
:meth:`DSSOperator.apply` call projects the whole ``(nelem, np, np,
3)`` velocity.  The historical per-element/einsum implementation is
preserved in ``tests/seam/reference_serial.py`` and the batched core
is golden-tested against it.

Validation (tests): Williamson et al. (1992) test case 2 — steady
geostrophic flow — must remain steady; mass is conserved to roundoff
and total energy drifts only at discretization level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dss import DSSOperator, rk3_stage, shared_dss_operator
from .element import GridGeometry

__all__ = ["SWState", "ShallowWaterSolver", "williamson_tc2"]

Z_AXIS = np.array([0.0, 0.0, 1.0])

# Cyclic index pairs for the cross product's k-th component.
_CROSS = ((1, 2), (2, 0), (0, 1))


@dataclass
class SWState:
    """Prognostic shallow-water state.

    Attributes:
        v: ``(nelem, np, np, 3)`` Cartesian tangent velocity.
        h: ``(nelem, np, np)`` fluid depth.
    """

    v: np.ndarray
    h: np.ndarray

    def copy(self) -> "SWState":
        return SWState(v=self.v.copy(), h=self.h.copy())

    def axpy(self, a: float, other: "SWState") -> "SWState":
        """Return ``self + a * other`` (new state)."""
        return SWState(v=self.v + a * other.v, h=self.h + a * other.h)

    def scaled(self, a: float) -> "SWState":
        return SWState(v=a * self.v, h=a * self.h)


class ShallowWaterSolver:
    """Spectral-element shallow-water dynamical core (batched).

    All hot-path fields live in two layouts: the public trailing-
    component layout ``(nelem, np, np, 3)`` that matches
    :class:`SWState` and the fused DSS projection, and an internal
    component-major workspace ``(3, nelem, np, np)`` whose slices are
    contiguous — elementwise numpy ops on a strided trailing axis are
    several times slower than on contiguous planes at these sizes.

    Args:
        geom: Grid geometry (unit sphere).
        gravity: Gravitational acceleration ``g`` (nondimensional by
            default; choose units consistently with ``omega``).
        omega: Planetary rotation rate for the Coriolis term.
        dss: Optional pre-built DSS operator.  Defaults to the shared
            per-geometry operator from
            :func:`repro.seam.dss.shared_dss_operator`, so solvers on
            the same grid reuse one point map.
    """

    def __init__(
        self,
        geom: GridGeometry,
        gravity: float = 1.0,
        omega: float = 1.0,
        dss: DSSOperator | None = None,
    ):
        self.geom = geom
        self.gravity = float(gravity)
        self.omega = float(omega)
        self.dss = dss if dss is not None else shared_dss_operator(geom)
        basis = geom.basis
        self.diff = np.ascontiguousarray(basis.diff)
        self._diff_t = np.ascontiguousarray(self.diff.T)
        self.jac = geom.jac
        self.basis_a = geom.basis_a
        self.basis_b = geom.basis_b
        self.ginv = geom.ginv
        self.rhat = geom.xyz
        #: Coriolis parameter f = 2 Omega sin(lat) at every point.
        self.coriolis = np.ascontiguousarray(2.0 * self.omega * self.rhat[..., 2])
        self.rhs_evals = 0

        nelem, npts = geom.nelem, geom.npts
        shape = (nelem, npts, npts)
        # Component-major copies of the static vector fields: each
        # [k] slice is a contiguous (nelem, np, np) plane.
        self._am = np.ascontiguousarray(np.moveaxis(self.basis_a, -1, 0))
        self._bm = np.ascontiguousarray(np.moveaxis(self.basis_b, -1, 0))
        self._rm = np.ascontiguousarray(np.moveaxis(self.rhat, -1, 0))
        #: f * rhat, the fixed factor of the Coriolis cross product.
        self._fr = self.coriolis * self._rm
        # The inverse metric is symmetric (both off-diagonal slots hold
        # the same array values), so three contiguous planes suffice.
        self._g11 = np.ascontiguousarray(self.ginv[..., 0, 0])
        self._g12 = np.ascontiguousarray(self.ginv[..., 0, 1])
        self._g22 = np.ascontiguousarray(self.ginv[..., 1, 1])
        self._inv_jac = 1.0 / self.jac

        # RHS workspace: component-major velocity + its derivatives,
        # scalar scratch planes, and the component-major tendency.
        self._vm = np.empty((3, *shape))
        self._d1v = np.empty((3, *shape))
        self._d2v = np.empty((3, *shape))
        self._dvm = np.empty((3, *shape))
        self._t = [np.empty(shape) for _ in range(7)]
        # RK3 stage buffers (state-shaped).
        self._kv = np.empty((*shape, 3))
        self._kh = np.empty(shape)
        self._sv = np.empty((*shape, 3))
        self._sh = np.empty(shape)

        # stable_dt constants, hoisted out of the per-call path: the
        # reference spacing and the global minimum of the metric scale
        # |basis_a| + |basis_b| are grid properties, not state.
        self._min_dxi = float(np.min(np.diff(basis.nodes)))
        scale = np.sqrt(
            np.einsum("...k,...k->...", self.basis_a, self.basis_a)
            + np.einsum("...k,...k->...", self.basis_b, self.basis_b)
        )
        self._min_scale = float(scale.min())

    # -- differential operators (batched over all elements) -----------
    def _d1(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Derivative along the first reference axis (batched GEMM)."""
        return np.matmul(self.diff, s, out=out)

    def _d2(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Derivative along the second reference axis (one GEMM)."""
        npts = s.shape[-1]
        if out is None:
            out = np.empty(s.shape)
        np.matmul(
            s.reshape(-1, npts), self._diff_t, out=out.reshape(-1, npts)
        )
        return out

    def gradient(self, s: np.ndarray) -> np.ndarray:
        """Surface gradient of a scalar, as a Cartesian tangent field."""
        cov1 = self._d1(s)
        cov2 = self._d2(s)
        c1 = self._g11 * cov1 + self._g12 * cov2
        c2 = self._g12 * cov1 + self._g22 * cov2
        return c1[..., None] * self.basis_a + c2[..., None] * self.basis_b

    def contravariant(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Contravariant components of a Cartesian tangent field."""
        cov1 = (
            vec[..., 0] * self._am[0]
            + vec[..., 1] * self._am[1]
            + vec[..., 2] * self._am[2]
        )
        cov2 = (
            vec[..., 0] * self._bm[0]
            + vec[..., 1] * self._bm[1]
            + vec[..., 2] * self._bm[2]
        )
        c1 = self._g11 * cov1 + self._g12 * cov2
        c2 = self._g12 * cov1 + self._g22 * cov2
        return c1, c2

    def divergence(self, vec: np.ndarray) -> np.ndarray:
        """Surface divergence of a Cartesian tangent field."""
        c1, c2 = self.contravariant(vec)
        return (self._d1(self.jac * c1) + self._d2(self.jac * c2)) * self._inv_jac

    def advect_scalar(self, vec: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Directional derivative ``(vec . grad) s``."""
        c1, c2 = self.contravariant(vec)
        return c1 * self._d1(s) + c2 * self._d2(s)

    def project_tangent(self, vec: np.ndarray) -> np.ndarray:
        """Remove the radial component of a Cartesian field."""
        radial = (
            vec[..., 0] * self._rm[0]
            + vec[..., 1] * self._rm[1]
            + vec[..., 2] * self._rm[2]
        )
        return vec - radial[..., None] * self.rhat

    # -- dynamics ------------------------------------------------------
    def rhs(self, state: SWState) -> SWState:
        """Momentum and continuity tendencies (element-wise)."""
        dv = np.empty(state.v.shape)
        dh = np.empty(state.h.shape)
        self._rhs_into(state.v, state.h, dv, dh)
        return SWState(v=dv, h=dh)

    def _rhs_into(
        self, v: np.ndarray, h: np.ndarray, dv: np.ndarray, dh: np.ndarray
    ) -> None:
        """Batched tendencies into preallocated ``dv``/``dh``.

        One pass over component-major workspace: two GEMMs produce all
        six velocity derivatives, the metric/Coriolis/gradient algebra
        runs on contiguous planes, and the continuity flux reuses the
        already-computed contravariant wind (``contra(h v) = h *
        contra(v)`` pointwise).
        """
        self.rhs_evals += 1
        vm, d1v, d2v, dvm = self._vm, self._d1v, self._d2v, self._dvm
        t0, t1, t2, t3, t4, t5, t6 = self._t
        am, bm, rm, fr = self._am, self._bm, self._rm, self._fr
        g11, g12, g22 = self._g11, self._g12, self._g22
        npts = self.geom.npts

        for k in range(3):
            np.copyto(vm[k], v[..., k])
        # All six reference-axis derivatives of velocity in two GEMMs.
        np.matmul(self.diff, vm, out=d1v)
        np.matmul(
            vm.reshape(-1, npts), self._diff_t, out=d2v.reshape(-1, npts)
        )

        # Contravariant wind: c1 (t2), c2 (t3).
        np.multiply(vm[0], am[0], out=t0)
        np.multiply(vm[1], am[1], out=t2)
        np.add(t0, t2, out=t0)
        np.multiply(vm[2], am[2], out=t2)
        np.add(t0, t2, out=t0)  # t0 = cov1
        np.multiply(vm[0], bm[0], out=t1)
        np.multiply(vm[1], bm[1], out=t2)
        np.add(t1, t2, out=t1)
        np.multiply(vm[2], bm[2], out=t2)
        np.add(t1, t2, out=t1)  # t1 = cov2
        np.multiply(g11, t0, out=t2)
        np.multiply(g12, t1, out=t4)
        np.add(t2, t4, out=t2)  # t2 = c1
        np.multiply(g12, t0, out=t3)
        np.multiply(g22, t1, out=t4)
        np.add(t3, t4, out=t3)  # t3 = c2

        # g * grad(h) contravariant components: hc1 (t4), hc2 (t5).
        self._d1(h, out=t0)
        self._d2(h, out=t1)
        np.multiply(g11, t0, out=t4)
        np.multiply(g12, t1, out=t6)
        np.add(t4, t6, out=t4)
        np.multiply(t4, self.gravity, out=t4)
        np.multiply(g12, t0, out=t5)
        np.multiply(g22, t1, out=t6)
        np.add(t5, t6, out=t5)
        np.multiply(t5, self.gravity, out=t5)

        # Momentum: dv_k = -(advection + Coriolis + g grad h).
        for k, (i, j) in enumerate(_CROSS):
            np.multiply(t2, d1v[k], out=t0)
            np.multiply(t3, d2v[k], out=t1)
            np.add(t0, t1, out=t0)
            np.multiply(fr[i], vm[j], out=t1)
            np.add(t0, t1, out=t0)
            np.multiply(fr[j], vm[i], out=t1)
            np.subtract(t0, t1, out=t0)
            np.multiply(t4, am[k], out=t1)
            np.add(t0, t1, out=t0)
            np.multiply(t5, bm[k], out=t1)
            np.add(t0, t1, out=t0)
            np.negative(t0, out=dvm[k])

        # Tangent projection of the tendency, then back to trailing.
        np.multiply(dvm[0], rm[0], out=t0)
        np.multiply(dvm[1], rm[1], out=t1)
        np.add(t0, t1, out=t0)
        np.multiply(dvm[2], rm[2], out=t1)
        np.add(t0, t1, out=t0)  # t0 = radial component
        for k in range(3):
            np.multiply(t0, rm[k], out=t1)
            np.subtract(dvm[k], t1, out=dvm[k])
            np.copyto(dv[..., k], dvm[k])

        # Continuity: dh = -div(h v); contra(h v) = h * contra(v).
        np.multiply(t2, h, out=t2)
        np.multiply(t2, self.jac, out=t2)
        np.multiply(t3, h, out=t3)
        np.multiply(t3, self.jac, out=t3)
        self._d1(t2, out=t0)
        self._d2(t3, out=t1)
        np.add(t0, t1, out=t0)
        np.multiply(t0, self._inv_jac, out=t0)
        np.negative(t0, out=dh)

    def _tangent_inplace(self, v: np.ndarray) -> None:
        """Remove the radial component of ``v`` in place."""
        t0, t1 = self._t[0], self._t[1]
        np.multiply(v[..., 0], self._rm[0], out=t0)
        np.multiply(v[..., 1], self._rm[1], out=t1)
        np.add(t0, t1, out=t0)
        np.multiply(v[..., 2], self._rm[2], out=t1)
        np.add(t0, t1, out=t0)
        for k in range(3):
            np.multiply(t0, self._rm[k], out=t1)
            np.subtract(v[..., k], t1, out=v[..., k])

    def _project_state_inplace(self, v: np.ndarray, h: np.ndarray) -> None:
        """DSS every prognostic component and re-tangentialize."""
        self.dss.apply(v, out=v)
        self._tangent_inplace(v)
        self.dss.apply(h, out=h)

    def _project_state(self, state: SWState) -> SWState:
        """DSS every prognostic component and re-tangentialize."""
        v = self.dss.apply(state.v)
        h = self.dss.apply(state.h)
        self._tangent_inplace(v)
        return SWState(v=v, h=h)

    def stable_dt(self, state: SWState, cfl: float = 0.4) -> float:
        """CFL limit from gravity-wave + advective speeds.

        The metric-scale minimum and reference spacing are grid
        constants precomputed in ``__init__``; only the state-dependent
        speeds are evaluated here.

        Raises:
            ValueError: If any depth is negative — such a state is
                unphysical and would previously have been silently
                clamped to zero.
        """
        if (state.h < 0.0).any():
            raise ValueError(
                "stable_dt: state has negative depth h "
                f"(min {float(state.h.min()):.3e}); the shallow-water "
                "system requires h >= 0"
            )
        speed = np.sqrt(self.gravity * state.h) + np.linalg.norm(
            state.v, axis=-1
        )
        max_contra = float(speed.max()) / self._min_scale
        if max_contra == 0:
            return np.inf
        return cfl * self._min_dxi / max_contra

    def step(self, state: SWState, dt: float) -> SWState:
        """One SSP RK3 step with per-stage projection.

        Each stage is one :func:`repro.seam.dss.rk3_stage` per field into
        a preallocated stage buffer; only the returned state is freshly
        allocated.
        """
        kv, kh = self._kv, self._kh
        v0 = np.ascontiguousarray(state.v, dtype=np.float64)
        h0 = np.ascontiguousarray(state.h, dtype=np.float64)
        sv, sh = v0, h0
        for stage in (1, 2, 3):
            self._rhs_into(sv, sh, kv, kh)
            if stage == 3:
                out_v, out_h = np.empty(v0.shape), np.empty(h0.shape)
            else:
                out_v, out_h = self._sv, self._sh
            sv = rk3_stage(stage, dt, v0, sv, kv, out_v)
            sh = rk3_stage(stage, dt, h0, sh, kh, out_h)
            self._project_state_inplace(sv, sh)
        return SWState(v=sv, h=sh)

    def run(self, state: SWState, t_end: float, cfl: float = 0.4) -> SWState:
        """Integrate to ``t_end``."""
        state = self._project_state(state)
        dt = self.stable_dt(state, cfl)
        nsteps = max(1, int(np.ceil(t_end / dt)))
        dt = t_end / nsteps
        for _ in range(nsteps):
            state = self.step(state, dt)
        return state

    # -- diagnostics ---------------------------------------------------
    def total_mass(self, state: SWState) -> float:
        """``\\int h dA`` (conserved to roundoff; tested)."""
        return self.dss.integrate(state.h)

    def total_energy(self, state: SWState) -> float:
        """Kinetic + potential energy."""
        ke = 0.5 * state.h * np.einsum("...k,...k->...", state.v, state.v)
        pe = 0.5 * self.gravity * state.h**2
        return self.dss.integrate(ke + pe)


def williamson_tc2(
    geom: GridGeometry,
    u0: float = 0.2,
    h0: float = 1.0,
    gravity: float = 1.0,
    omega: float = 1.0,
) -> SWState:
    """Williamson test case 2: steady zonal geostrophic flow.

    On the unit sphere with rotation axis ``z``::

        v = u0 (z x rhat)
        g h = g h0 - (Omega u0 + u0^2 / 2) (rhat . z)^2

    is an exact steady solution of the shallow-water equations; a
    correct solver must hold it (tested).

    Args:
        geom: Grid geometry.
        u0: Peak zonal wind.
        h0: Mean depth (keep ``g h0`` > the perturbation for h > 0).
        gravity: ``g``.
        omega: Planetary rotation rate (must match the solver's).
    """
    rhat = geom.xyz
    v = u0 * np.cross(np.broadcast_to(Z_AXIS, rhat.shape), rhat)
    sin_lat = rhat[..., 2]
    h = h0 - (omega * u0 + 0.5 * u0**2) * sin_lat**2 / gravity
    if (h <= 0).any():
        raise ValueError("h0 too small: depth would go non-positive")
    return SWState(v=v, h=h)
