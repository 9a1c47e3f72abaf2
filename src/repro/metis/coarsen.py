"""Graph contraction and the coarsening loop of the multilevel scheme."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._native import LIB as _NATIVE
from .._native import check
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
    coarse vertex — the point of heavy-edge matching).  Runs in the
    compiled ``contract`` kernel.

    Raises:
        ValueError: ``match`` is not ``(n,)`` or holds an id outside
            ``[0, n)``.
    """
    n = graph.nvertices
    match = np.ascontiguousarray(match, dtype=np.int64)
    if match.shape != (n,):
        raise ValueError(f"match must have shape ({n},), got {match.shape}")
    if n and not (match.min() >= 0 and match.max() < n):
        raise ValueError(f"match ids must lie in [0, {n})")
    fine_to_coarse = np.empty(n, dtype=np.int64)
    indptr = np.empty(n + 1, dtype=np.int64)
    indices = np.empty(len(graph.indices), dtype=np.int64)
    eweights = np.empty(len(graph.indices), dtype=np.int64)
    vweights = np.empty(n, dtype=np.int64)
    nc = check(_NATIVE.contract(
        n, *graph.addresses(), match.ctypes.data, fine_to_coarse.ctypes.data,
        indptr.ctypes.data, indices.ctypes.data, eweights.ctypes.data,
        vweights.ctypes.data,
    ))
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
