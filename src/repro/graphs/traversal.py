"""Graph traversal utilities: BFS levels and connected components.

These back partition analysis and validation (partition parts should
usually be connected for good quality, and the mesh graph itself must
be connected).  The METIS-style partitioner's pseudo-peripheral seed
search runs in the compiled kernels.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = [
    "bfs_levels",
    "connected_components",
    "is_connected",
]


def bfs_levels(graph: CSRGraph, source: int, mask: np.ndarray | None = None) -> np.ndarray:
    """Breadth-first level of every vertex from ``source``.

    Args:
        graph: The graph.
        source: Start vertex.
        mask: Optional boolean array restricting traversal to a vertex
            subset (vertices outside keep level ``-1``).

    Returns:
        ``(n,)`` int array of BFS levels; ``-1`` for unreachable
        vertices.
    """
    n = graph.nvertices
    if mask is not None and not mask[source]:
        return np.full(n, -1, dtype=np.int64)
    mask_l = None if mask is None else mask.tolist()
    nbrs, _ = graph.neighbor_slices()
    level = [-1] * n
    level[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[int] = []
        append = nxt.append
        for v in frontier:
            for u in nbrs[v]:
                if level[u] < 0 and (mask_l is None or mask_l[u]):
                    level[u] = depth
                    append(u)
        frontier = nxt
    return np.array(level, dtype=np.int64)


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label of every vertex (labels are 0-based, dense)."""
    n = graph.nvertices
    comp = -np.ones(n, dtype=np.int64)
    label = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = label
        stack = [start]
        while stack:
            v = stack.pop()
            for u in graph.neighbors(v):
                if comp[u] < 0:
                    comp[u] = label
                    stack.append(int(u))
        label += 1
    return comp


def is_connected(graph: CSRGraph) -> bool:
    """Whether the graph is connected (empty graphs count as connected)."""
    if graph.nvertices == 0:
        return True
    return bool((connected_components(graph) == 0).all())
