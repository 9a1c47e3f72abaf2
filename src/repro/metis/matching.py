"""Coarsening matchings: random matching and heavy-edge matching.

First stage of the multilevel scheme (Karypis & Kumar): find a maximal
matching and contract matched pairs.  Heavy-edge matching (HEM) picks,
for each unmatched vertex, the unmatched neighbor connected by the
heaviest edge, which hides as much edge weight as possible inside
coarse vertices and is the workhorse of METIS.
"""

from __future__ import annotations

import numpy as np

from .._native import LIB as _NATIVE
from .._native import check
from ..graphs.csr import CSRGraph
from .rng import Streams

__all__ = ["random_matching", "heavy_edge_matching"]


def _visit_order(graph: CSRGraph, rng: Streams, sort_by_degree: bool) -> np.ndarray:
    order = rng.permutations([graph.nvertices])
    if sort_by_degree:
        # Visit low-degree vertices first (METIS's SHEM tweak): they
        # have the fewest matching options, so serve them early.
        deg = graph.degrees()
        order = order[np.argsort(deg[order], kind="stable")]
    return order


def random_matching(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """Maximal matching by random vertex visitation.

    Visit/claim loop: the visit order is drawn once, then the
    sequential claim loop runs over plain-int adjacency lists, with one
    ``integers`` draw per vertex with free neighbors from the same
    stream (:class:`~repro.metis.rng.Streams`, the draws of
    NumPy's ``default_rng(seed)``).

    Returns:
        ``(n,)`` int array ``match`` with ``match[v]`` the partner of
        ``v`` (``match[v] == v`` for unmatched vertices).
    """
    rng = Streams([seed])
    n = graph.nvertices
    nbrs, _ = graph.neighbor_slices()
    match = list(range(n))
    matched = bytearray(n)
    for v in _visit_order(graph, rng, sort_by_degree=False).tolist():
        if matched[v]:
            continue
        free = [u for u in nbrs[v] if not matched[u]]
        if free:
            u = free[int(rng.integers([len(free)], 1)[0, 0])]
            match[v] = u
            match[u] = v
            matched[v] = matched[u] = 1
    return np.array(match, dtype=np.int64)


def heavy_edge_matching(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """Maximal matching preferring heavy edges (HEM/SHEM).

    Same visit/claim structure as :func:`random_matching`; each vertex
    claims its heaviest free neighbor, first-in-adjacency-order on
    ties.  The claim loop is the compiled ``hem_claim`` kernel.

    Returns:
        ``(n,)`` int array as in :func:`random_matching`.
    """
    n = graph.nvertices
    order = _visit_order(graph, Streams([seed]), sort_by_degree=True)
    match = np.empty(n, dtype=np.int64)
    check(_NATIVE.hem_claim(
        n, *graph.addresses()[:3], order.ctypes.data, match.ctypes.data
    ))
    return match
