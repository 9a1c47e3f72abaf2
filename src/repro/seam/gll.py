"""Gauss-Lobatto-Legendre quadrature and spectral differentiation.

The spectral element method (Taylor, Tribbia & Iskandarani 1997 — the
paper's SEAM ancestor) approximates fields inside each element by
high-order polynomials collocated at GLL points; SEAM uses ``np = 8``
points per direction.  This module provides the 1-D building blocks:
GLL nodes, quadrature weights, and the collocation differentiation
matrix, all computed to machine precision with Newton iteration on
Legendre polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memo import StageCache

__all__ = ["GLLBasis", "gll_basis", "legendre_and_derivative"]


def legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``P_n`` and ``P_n'`` by the three-term recurrence.

    Args:
        n: Legendre degree (>= 0).
        x: Evaluation points.

    Returns:
        ``(P_n(x), P_n'(x))``.
    """
    x = np.asarray(x, dtype=np.float64)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # P_n' from the standard identity (guarded at the endpoints).
    dp = np.where(
        np.abs(1.0 - x * x) > 1e-14,
        n * (x * p - p_prev) / np.where(np.abs(x * x - 1.0) > 1e-14, x * x - 1.0, 1.0),
        0.0,
    )
    # Endpoint derivative: P_n'(+-1) = (+-1)^{n-1} n (n+1) / 2.
    endp = n * (n + 1) / 2.0
    dp = np.where(x >= 1.0 - 1e-14, endp, dp)
    dp = np.where(x <= -1.0 + 1e-14, endp * (-1.0) ** (n - 1), dp)
    return p, dp


@dataclass(frozen=True)
class GLLBasis:
    """1-D GLL basis of ``npts`` points on ``[-1, 1]``.

    Attributes:
        npts: Number of collocation points (polynomial degree + 1).
        nodes: ``(npts,)`` GLL nodes, ascending, endpoints included.
        weights: ``(npts,)`` quadrature weights (exact for degree
            ``2 * npts - 3``).
        diff: ``(npts, npts)`` collocation derivative matrix ``D`` with
            ``(D f)[i] = f'(nodes[i])`` for polynomial ``f``.
    """

    npts: int
    nodes: np.ndarray
    weights: np.ndarray
    diff: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.nodes, self.weights, self.diff):
            arr.setflags(write=False)


def _gll_nodes(npts: int) -> np.ndarray:
    """GLL nodes: endpoints plus the roots of ``P'_{npts-1}``."""
    n = npts - 1
    if npts == 2:
        return np.array([-1.0, 1.0])
    # Chebyshev-Gauss-Lobatto initial guess, then Newton on P'_n using
    # the derivative recurrence for P''.
    x = -np.cos(np.pi * np.arange(1, n) / n)
    for _ in range(100):
        p, dp = legendre_and_derivative(n, x)
        # P_n'' from the Legendre ODE: (1-x^2) P'' - 2x P' + n(n+1) P = 0.
        d2p = (2.0 * x * dp - n * (n + 1) * p) / (1.0 - x * x)
        step = dp / d2p
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return np.concatenate([[-1.0], x, [1.0]])


#: GLL bases of this process, one per point count.
_GLL_MEMO = StageCache("gll_basis", maxsize=16)


def gll_basis(npts: int) -> GLLBasis:
    """The GLL basis with ``npts`` points (the ``gll_basis`` memo).

    Raises:
        ValueError: If ``npts < 2`` (Lobatto rules need both endpoints).
    """
    return _GLL_MEMO.get_or_compute((npts,), lambda: _build_basis(npts))


def _build_basis(npts: int) -> GLLBasis:
    if npts < 2:
        raise ValueError("GLL basis needs at least 2 points")
    n = npts - 1
    nodes = _gll_nodes(npts)
    pn, _ = legendre_and_derivative(n, nodes)
    weights = 2.0 / (n * (n + 1) * pn**2)
    # Differentiation matrix, standard GLL formula:
    #   D[i, j] = P_n(x_i) / (P_n(x_j) (x_i - x_j))   (i != j)
    #   D[0, 0] = -n(n+1)/4, D[n, n] = +n(n+1)/4, else 0.
    diff = np.zeros((npts, npts))
    for i in range(npts):
        for j in range(npts):
            if i != j:
                diff[i, j] = pn[i] / (pn[j] * (nodes[i] - nodes[j]))
    diff[0, 0] = -n * (n + 1) / 4.0
    diff[-1, -1] = n * (n + 1) / 4.0
    return GLLBasis(npts=npts, nodes=nodes, weights=weights, diff=diff)
