"""Graph Laplacian and spectral (Fiedler) bisection support.

METIS's ancestry is spectral partitioning; our multilevel partitioner
offers a spectral initial bisection (Fiedler-vector split) alongside
greedy graph growing.  The Fiedler vector is computed with SciPy's
sparse eigensolvers on the (weighted) Laplacian.  SciPy is imported
only when one is computed, so serving (which never bisects spectrally
by default) does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .csr import CSRGraph

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = ["laplacian_matrix", "fiedler_vector", "spectral_bisection_order"]


def laplacian_matrix(graph: CSRGraph) -> csr_matrix:
    """Weighted combinatorial Laplacian ``L = D - A``."""
    from scipy.sparse import diags

    a = graph.adjacency_matrix()
    d = np.asarray(a.sum(axis=1)).ravel()
    return (diags(d) - a).tocsr()


def fiedler_vector(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """Eigenvector of the second-smallest Laplacian eigenvalue.

    Args:
        graph: A *connected* graph with at least two vertices.
        seed: Seed for the eigensolver's start vector (determinism).

    Returns:
        ``(n,)`` float array (sign fixed so the first nonzero entry is
        positive, for reproducibility).
    """
    n = graph.nvertices
    if n < 2:
        raise ValueError("fiedler vector needs at least 2 vertices")
    lap = laplacian_matrix(graph)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if n <= 64:
        # Dense solve is both faster and more robust for tiny graphs.
        vals, vecs = np.linalg.eigh(lap.toarray())
        fiedler = vecs[:, np.argsort(vals)[1]]
    else:
        from scipy.sparse.linalg import eigsh

        # Shift-invert around 0 converges quickly for small eigenvalues.
        vals, vecs = eigsh(lap, k=2, sigma=-1e-8, which="LM", v0=v0)
        fiedler = vecs[:, np.argsort(vals)[1]]
    nz = np.flatnonzero(np.abs(fiedler) > 1e-12)
    if len(nz) and fiedler[nz[0]] < 0:
        fiedler = -fiedler
    return fiedler


def spectral_bisection_order(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """Vertices sorted by Fiedler-vector value.

    Splitting this order at the balance point gives the spectral
    bisection; exposing the full order lets the caller honor vertex
    weights exactly.
    """
    f = fiedler_vector(graph, seed)
    return np.argsort(f, kind="stable")
