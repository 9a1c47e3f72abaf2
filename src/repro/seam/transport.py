"""Spectral-element transport on the cubed-sphere (the SEAM analog).

A conservative flux-form advection solver with the exact computational
structure of SEAM's dynamical core: per-element tensor-product spectral
derivatives (dense ``np x np`` matrix applications — the flops, one
compiled ``transport_rhs`` pass over the elements) and a DSS boundary
exchange per right-hand-side evaluation (the communication).  The
equation solved is

    d(q)/dt + (1/J) [ d(J u^1 q)/dxi_1 + d(J u^2 q)/dxi_2 ] = 0

with ``u^i`` the contravariant wind components, integrated with SSP
RK3 and a DSS projection after every stage; the DSS forms each stage's
combination itself (``apply_stage``, the ``rk3_stage`` kernel), so a
stage is one right-hand side and one projection, serial or
partitioned.  Solid-body rotation of a
cosine bell — the standard Williamson test case 1 — gives an analytic
solution to validate against (tests assert the error is small and
decreases with ``np``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._native import LIB, check
from .dss import DSSOperator, _address, float64_fields, shared_dss_operator
from .element import GridGeometry

if TYPE_CHECKING:
    from .parallel import PartitionedDSS

__all__ = [
    "solid_body_wind",
    "cosine_bell",
    "rotate_about_axis",
    "TransportSolver",
    "advect",
]


def rotate_about_axis(xyz: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotate points about a unit axis by ``angle`` (Rodrigues)."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    c, s = np.cos(angle), np.sin(angle)
    cross = np.cross(np.broadcast_to(axis, xyz.shape), xyz)
    dot = np.einsum("...k,k->...", xyz, axis)
    return c * xyz + s * cross + (1.0 - c) * dot[..., None] * axis


def solid_body_wind(xyz: np.ndarray, axis: np.ndarray, omega: float) -> np.ndarray:
    """Velocity ``Omega x r`` of rigid rotation about ``axis``.

    Args:
        xyz: ``(..., 3)`` unit-sphere positions.
        axis: Rotation axis (normalized internally).
        omega: Angular speed (radians per time unit).

    Returns:
        ``(..., 3)`` Cartesian tangent velocities.
    """
    axis = np.asarray(axis, dtype=np.float64)
    axis = omega * axis / np.linalg.norm(axis)
    return np.cross(np.broadcast_to(axis, xyz.shape), xyz)


def cosine_bell(
    xyz: np.ndarray, center: np.ndarray, radius: float = 1.0 / 3.0
) -> np.ndarray:
    """Williamson cosine-bell initial condition.

    Args:
        xyz: ``(..., 3)`` unit-sphere positions.
        center: Bell center (unit vector).
        radius: Bell radius in radians of great-circle distance.

    Returns:
        Field values in ``[0, 1]``.
    """
    center = np.asarray(center, dtype=np.float64)
    center = center / np.linalg.norm(center)
    dist = np.arccos(np.clip(np.einsum("...k,k->...", xyz, center), -1.0, 1.0))
    return np.where(dist < radius, 0.5 * (1.0 + np.cos(np.pi * dist / radius)), 0.0)


@dataclass
class TransportSolver:
    """Flux-form SE advection with a frozen wind field.

    Args:
        geom: Grid geometry.
        wind_cart: ``(nelem, np, np, 3)`` Cartesian tangent wind.
        dss: Optional pre-built DSS operator (the grid's shared one
            otherwise); a :class:`repro.seam.PartitionedDSS` runs the
            solver under a domain decomposition.

    Raises:
        ValueError: ``wind_cart`` is not of shape ``(nelem, np, np, 3)``.
        TypeError: ``wind_cart``'s dtype does not cast safely to float64.
    """

    geom: GridGeometry
    wind_cart: np.ndarray
    dss: DSSOperator | PartitionedDSS | None = None

    def __post_init__(self) -> None:
        if self.dss is None:
            self.dss = shared_dss_operator(self.geom)
        geom = self.geom
        nelem = geom.nelem
        npts = geom.npts
        if self.wind_cart.shape != (nelem, npts, npts, 3):
            raise ValueError("wind_cart has wrong shape")
        # Precompute J and the J-weighted contravariant wind from the
        # grid-wide geometry stacks (no per-element Python loop).
        self.jac = geom.jac
        w = self.wind_cart
        cov1 = (
            w[..., 0] * geom.basis_a[..., 0]
            + w[..., 1] * geom.basis_a[..., 1]
            + w[..., 2] * geom.basis_a[..., 2]
        )
        cov2 = (
            w[..., 0] * geom.basis_b[..., 0]
            + w[..., 1] * geom.basis_b[..., 1]
            + w[..., 2] * geom.basis_b[..., 2]
        )
        ginv = geom.ginv
        contra1 = ginv[..., 0, 0] * cov1 + ginv[..., 0, 1] * cov2
        contra2 = ginv[..., 1, 0] * cov1 + ginv[..., 1, 1] * cov2
        # The kernel reads these as C-contiguous float64 stacks.
        self.flux_u, self.flux_v, self._neg_inv_jac = float64_fields(
            (nelem, npts, npts),
            self.jac * contra1,
            self.jac * contra2,
            -1.0 / self.jac,
        )
        self.diff = np.ascontiguousarray(geom.basis.diff)
        # The kernel's constant operands, held privately so their
        # addresses stay valid whatever happens to the public attributes.
        self._rhs_operands = (self.diff, self.flux_u, self.flux_v, self._neg_inv_jac)
        self._rhs_args = (
            nelem, npts, *(a.ctypes.data for a in self._rhs_operands)
        )
        # CFL constants for the frozen wind, hoisted out of stable_dt.
        self._min_dxi = float(np.min(np.diff(geom.basis.nodes)))
        speed = np.abs(self.flux_u / self.jac) + np.abs(self.flux_v / self.jac)
        self._max_speed = float(speed.max())
        self.rhs_evals = 0  # instrumentation for the cost model

    def rhs(self, q: np.ndarray) -> np.ndarray:
        """Right-hand side ``-(1/J) div(J u q)`` (element-wise), new array.

        One ``transport_rhs`` kernel pass: per element, the flux
        products ``J u^1 q`` and ``J u^2 q``, their ``dxi_1`` and
        ``dxi_2`` derivatives (``diff`` applied to the first and the
        second tensor index) and the sum times ``-1/J``.  Each
        derivative is a chain of fused multiply-adds in the order a BLAS
        GEMM sums it (``repro._kernels.c``).

        Raises:
            ValueError: ``q`` is not of the grid's ``(nelem, np, np)``
                shape.
            TypeError: ``q``'s dtype does not cast safely to float64.
        """
        (q,) = float64_fields(self._neg_inv_jac.shape, q)
        out = np.empty(q.shape)
        check(LIB.transport_rhs(*self._rhs_args, _address(q), _address(out)))
        self.rhs_evals += 1
        return out

    def stable_dt(self, cfl: float = 0.5) -> float:
        """CFL-limited timestep for the frozen wind."""
        if self._max_speed == 0.0:
            return np.inf
        return cfl * self._min_dxi / self._max_speed

    def step(self, q: np.ndarray, dt: float) -> np.ndarray:
        """One SSP RK3 step with DSS projection after every stage.

        Each stage combination is formed inside its projection
        (``apply_stage``), for the serial and the partitioned DSS alike.
        """
        qk = q
        for stage in (1, 2, 3):
            qk = self.dss.apply_stage(stage, dt, q, qk, self.rhs(qk))
        return qk

    def run(self, q0: np.ndarray, t_end: float, cfl: float = 0.5) -> np.ndarray:
        """Integrate from ``q0`` to ``t_end``; returns the final field."""
        dt = self.stable_dt(cfl)
        nsteps = max(1, int(np.ceil(t_end / dt)))
        dt = t_end / nsteps
        q = self.dss.apply(q0) if self.dss else q0
        for _ in range(nsteps):
            q = self.step(q, dt)
        return q


def advect(
    geom: GridGeometry,
    axis: np.ndarray,
    angle: float,
    q0: np.ndarray,
    cfl: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Advect a field by solid-body rotation and return (final, exact).

    The exact solution rotates the initial field rigidly, so it is
    evaluated by sampling ``q0``'s analytic generator at back-rotated
    positions — the caller passes ``q0`` as *values*, so this helper
    instead returns the rotated-sample reference computed from the
    positions (valid when ``q0`` came from :func:`cosine_bell`; for
    general fields compute your own reference).

    Args:
        geom: Grid geometry.
        axis: Rotation axis.
        angle: Total rotation angle (time with unit angular speed).
        q0: Initial field ``(nelem, np, np)``.
        cfl: CFL number.

    Returns:
        ``(q_final, positions_back_rotated)`` — the second output lets
        callers evaluate the analytic field at departure points.
    """
    xyz = geom.xyz
    wind = solid_body_wind(xyz, axis, omega=1.0)
    solver = TransportSolver(geom, wind)
    q = solver.run(q0, t_end=angle, cfl=cfl)
    departed = rotate_about_axis(xyz, np.asarray(axis, dtype=np.float64), -angle)
    return q, departed
