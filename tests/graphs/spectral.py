"""Graph Laplacian and spectral (Fiedler) bisection, for tests only.

METIS's ancestry is spectral partitioning.  The package bisects with
greedy graph growing alone; the spectral split and the SciPy matrices
behind it are kept here, where the spectral tests and the networkx /
SciPy cross-validation use them.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import eigsh

from repro.graphs.csr import CSRGraph


def adjacency_matrix(graph: CSRGraph) -> csr_matrix:
    """The graph as a ``scipy.sparse.csr_matrix`` of edge weights."""
    return csr_matrix(
        (graph.eweights.astype(np.float64), graph.indices, graph.indptr),
        shape=(graph.nvertices, graph.nvertices),
    )


def laplacian_matrix(graph: CSRGraph) -> csr_matrix:
    """Weighted combinatorial Laplacian ``L = D - A``."""
    a = adjacency_matrix(graph)
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
    v0 = np.random.default_rng(seed).standard_normal(n)
    if n <= 64:
        # Dense solve is both faster and more robust for tiny graphs.
        vals, vecs = np.linalg.eigh(lap.toarray())
    else:
        # Shift-invert around 0 converges quickly for small eigenvalues.
        vals, vecs = eigsh(lap, k=2, sigma=-1e-8, which="LM", v0=v0)
    fiedler = vecs[:, np.argsort(vals)[1]]
    nz = np.flatnonzero(np.abs(fiedler) > 1e-12)
    if len(nz) and fiedler[nz[0]] < 0:
        fiedler = -fiedler
    return fiedler


def spectral_bisection_order(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """Vertices sorted by Fiedler-vector value."""
    return np.argsort(fiedler_vector(graph, seed), kind="stable")


def spectral_initial_bisection(
    graph: CSRGraph, target_left: int, seed: int = 0
) -> np.ndarray:
    """Bisection by splitting the Fiedler order at the prefix whose
    weight best matches ``target_left``."""
    order = spectral_bisection_order(graph, seed)
    prefix = np.cumsum(graph.vweights[order])
    k = int(np.argmin(np.abs(prefix - target_left)))
    side = np.ones(graph.nvertices, dtype=np.int64)
    side[order[: k + 1]] = 0
    return side
