"""Graph contraction and the coarsening loop of the multilevel scheme."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._native import LIB as _NATIVE
from ..graphs.csr import CSRGraph
from .matching import heavy_edge_matching

__all__ = ["CoarseLevel", "contract", "coarsen_to"]


@dataclass(frozen=True)
class CoarseLevel:
    """One level of the coarsening hierarchy.

    Attributes:
        graph: The coarse graph.
        fine_to_coarse: ``(n_fine,)`` map from fine vertex to its
            coarse vertex.
    """

    graph: CSRGraph
    fine_to_coarse: np.ndarray


def contract(graph: CSRGraph, match: np.ndarray) -> CoarseLevel:
    """Contract a matching into a coarse graph.

    Matched pairs become one coarse vertex whose weight is the pair
    sum; parallel coarse edges are merged with summed weights and
    intra-pair edges vanish (their weight is "hidden" inside the
    coarse vertex — the point of heavy-edge matching).  A matching of
    in-range ids runs in the C ``contract`` kernel (same arrays).
    """
    n = graph.nvertices
    match = np.asarray(match)
    if (
        _NATIVE is not None
        and match.shape == (n,)
        and (n == 0 or (match.min() >= 0 and match.max() < n))
    ):
        level = _contract_native(graph, np.ascontiguousarray(match, dtype=np.int64))
        if level is not None:
            return level
    # Coarse ids: number pairs by their smaller endpoint.
    rep = np.minimum(np.arange(n), match)
    uniq, coarse_of = np.unique(rep, return_inverse=True)
    nc = len(uniq)
    cvw = np.zeros(nc, dtype=np.int64)
    np.add.at(cvw, coarse_of, graph.vweights)
    # Directed fine edges mapped to coarse ids; drop internal edges,
    # merge duplicates by summation.
    src = np.repeat(np.arange(n), graph.degrees())
    csrc = coarse_of[src]
    cdst = coarse_of[graph.indices]
    keep = csrc != cdst
    csrc, cdst, w = csrc[keep], cdst[keep], graph.eweights[keep]
    key = csrc.astype(np.int64) * nc + cdst
    order = np.argsort(key, kind="stable")
    key, w = key[order], w[order]
    uniq_key, start = np.unique(key, return_index=True)
    sums = np.add.reduceat(w, start) if len(key) else np.empty(0, dtype=np.int64)
    usrc = (uniq_key // nc).astype(np.int64)
    udst = (uniq_key % nc).astype(np.int64)
    indptr = np.searchsorted(usrc, np.arange(nc + 1)).astype(np.int64)
    coarse = CSRGraph(
        indptr=indptr, indices=udst.copy(), eweights=sums.astype(np.int64), vweights=cvw
    )
    return CoarseLevel(graph=coarse, fine_to_coarse=coarse_of)


def _contract_native(graph: CSRGraph, match: np.ndarray) -> CoarseLevel | None:
    """:func:`contract` through the C kernel; ``None`` if it cannot allocate."""
    n = graph.nvertices
    fine_to_coarse = np.empty(n, dtype=np.int64)
    indptr = np.empty(n + 1, dtype=np.int64)
    indices = np.empty(len(graph.indices), dtype=np.int64)
    eweights = np.empty(len(graph.indices), dtype=np.int64)
    vweights = np.empty(n, dtype=np.int64)
    nc = _NATIVE.contract(
        n, *graph.addresses(), match.ctypes.data, fine_to_coarse.ctypes.data,
        indptr.ctypes.data, indices.ctypes.data, eweights.ctypes.data,
        vweights.ctypes.data,
    )
    if nc < 0:
        return None
    nnz = int(indptr[nc])
    coarse = CSRGraph(
        indptr=indptr[: nc + 1].copy(),
        indices=indices[:nnz].copy(),
        eweights=eweights[:nnz].copy(),
        vweights=vweights[:nc].copy(),
    )
    return CoarseLevel(graph=coarse, fine_to_coarse=fine_to_coarse)


#: Default cap on the number of coarsening levels.
MAX_LEVELS = 64


def coarsen_to(
    graph: CSRGraph,
    target_nvertices: int,
    seed: int = 0,
    max_levels: int = MAX_LEVELS,
) -> list[CoarseLevel]:
    """Coarsen with HEM until the target size or until progress stalls.

    Coarsening stops when the vertex count is at most
    ``target_nvertices`` or a level shrinks the graph by less than 10%
    (METIS's stall criterion — matchings degrade as the graph densifies).

    Returns:
        The hierarchy, finest-derived level first; empty when the input
        is already small enough.
    """
    levels: list[CoarseLevel] = []
    current = graph
    for lvl in range(max_levels):
        if current.nvertices <= target_nvertices:
            break
        match = heavy_edge_matching(current, seed=seed + lvl)
        level = contract(current, match)
        if level.graph.nvertices > 0.9 * current.nvertices:
            break
        levels.append(level)
        current = level.graph
    return levels
