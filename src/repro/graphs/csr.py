"""Weighted undirected graphs in CSR (compressed sparse row) form.

This is the substrate shared by the METIS-style partitioner and the
partition-quality metrics.  The representation mirrors what METIS
itself consumes (Sec. 2 of the paper): an undirected graph
``G = [V, E]`` with integer vertex weights (computation per element)
and integer edge weights (information exchanged across each element
boundary).

The CSR layout stores every undirected edge twice (once per endpoint)
so neighbor iteration is a contiguous slice — the cache-friendly access
pattern the HPC guides recommend.  Cut and volume come from one compiled
pass (:func:`repro.partition.metrics.part_metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .._native import LIB as _NATIVE
from .._native import check

__all__ = ["CSRGraph", "graph_from_edges", "mesh_graph", "table_adjacency"]


@dataclass(frozen=True)
class CSRGraph:
    """Undirected vertex- and edge-weighted graph in CSR form.

    Attributes:
        indptr: ``(n + 1,)`` int64; neighbors of vertex ``v`` live at
            ``indices[indptr[v]:indptr[v + 1]]``.
        indices: ``(2m,)`` int64 neighbor ids (each undirected edge
            appears in both endpoints' slices).
        eweights: ``(2m,)`` int64 edge weights, aligned with
            :attr:`indices`; symmetric by construction.
        vweights: ``(n,)`` int64 vertex weights.
    """

    indptr: np.ndarray
    indices: np.ndarray
    eweights: np.ndarray
    vweights: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.eweights, self.vweights):
            arr.setflags(write=False)

    # -- basic shape ---------------------------------------------------
    @property
    def nvertices(self) -> int:
        return len(self.vweights)

    @property
    def nedges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def __len__(self) -> int:
        return self.nvertices

    # -- access --------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.eweights[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def adjacency_lists(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """CSR arrays as plain Python int lists (cached per graph).

        The sequential Python loops (random matching, BFS) walk
        adjacency one vertex at a time; at mesh-graph degrees (~8)
        Python-int list indexing beats NumPy scalar indexing by an
        order of magnitude, and — everything being exact int64
        arithmetic — produces bit-identical results.

        Returns:
            ``(indptr, indices, eweights, vweights)`` lists.
        """
        cached = self.__dict__.get("_adj_lists")
        if cached is None:
            cached = (
                self.indptr.tolist(),
                self.indices.tolist(),
                self.eweights.tolist(),
                self.vweights.tolist(),
            )
            object.__setattr__(self, "_adj_lists", cached)
        return cached

    def total_vweight(self) -> int:
        cached = self.__dict__.get("_total_vweight")
        if cached is None:
            cached = int(self.vweights.sum())
            object.__setattr__(self, "_total_vweight", cached)
        return cached

    def neighbor_slices(self) -> tuple[list, list]:
        """Per-vertex neighbor and edge-weight lists (cached).

        ``(nbrs, wts)`` with ``nbrs[v]`` / ``wts[v]`` plain-int lists —
        the feed for the sequential Python loops (random matching,
        BFS), which iterate ``zip(nbrs[v], wts[v])`` instead of
        re-slicing the flat CSR arrays on every visit.
        """
        cached = self.__dict__.get("_nbr_slices")
        if cached is None:
            indptr, indices, eweights, _ = self.adjacency_lists()
            n = self.nvertices
            nbrs = [None] * n
            wts = [None] * n
            lo = 0
            for v in range(n):
                hi = indptr[v + 1]
                nbrs[v] = indices[lo:hi]
                wts[v] = eweights[lo:hi]
                lo = hi
            cached = (nbrs, wts)
            object.__setattr__(self, "_nbr_slices", cached)
        return cached

    def addresses(self) -> tuple[int, int, int, int]:
        """Raw data addresses of ``(indptr, indices, eweights, vweights)``.

        The compiled kernels take their CSR inputs as ``void *``.  Not
        cached: a pickled or copied graph must not carry the addresses
        of the original's arrays.
        """
        return (
            self.indptr.ctypes.data,
            self.indices.ctypes.data,
            self.eweights.ctypes.data,
            self.vweights.ctypes.data,
        )

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected edge once: ``(u, v, w)`` with ``u < v``."""
        src = np.repeat(np.arange(self.nvertices), self.degrees())
        mask = src < self.indices
        return src[mask], self.indices[mask], self.eweights[mask]

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ValueError` on structural inconsistencies.

        Checks monotone ``indptr``, index bounds, absence of
        self-loops, adjacency symmetry and edge-weight symmetry.
        Intended for tests and for guarding partitioner inputs; cost is
        ``O(m log m)``.
        """
        n = self.nvertices
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr endpoints inconsistent with indices")
        if (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise ValueError("neighbor index out of range")
        src = np.repeat(np.arange(n), self.degrees())
        if (src == self.indices).any():
            raise ValueError("self-loops are not allowed")
        fwd = np.stack([src, self.indices], axis=1)
        rev = np.stack([self.indices, src], axis=1)
        fwd_v = np.lexsort((fwd[:, 1], fwd[:, 0]))
        rev_v = np.lexsort((rev[:, 1], rev[:, 0]))
        if not np.array_equal(fwd[fwd_v], rev[rev_v]):
            raise ValueError("adjacency is not symmetric")
        if not np.array_equal(self.eweights[fwd_v], self.eweights[rev_v]):
            raise ValueError("edge weights are not symmetric")

    # -- derived quantities ----------------------------------------------
    def subgraph(self, vertices: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``vertices``, in the compiled ``rb_extract``.

        Args:
            vertices: Strictly ascending vertex ids; the subgraph's
                vertex ``i`` is ``vertices[i]``, and each of its
                adjacency rows keeps the parent's order.

        Returns:
            ``(sub, mapping)`` where ``mapping[i]`` is the original id
            of the subgraph's vertex ``i``.

        Raises:
            ValueError: ``vertices`` is not strictly ascending or leaves
                ``[0, n)``.
        """
        vertices = np.ascontiguousarray(vertices, dtype=np.int64).ravel()
        k = len(vertices)
        cap = int(self.indptr[-1])
        out_indptr = np.empty(k + 1, dtype=np.int64)
        out_indices = np.empty(cap, dtype=np.int64)
        out_weights = np.empty(cap, dtype=np.int64)
        out_vweights = np.empty(k, dtype=np.int64)
        offsets = np.array([0, k], dtype=np.int64)
        edge_offsets = np.empty(2, dtype=np.int64)
        scalars = np.empty(3, dtype=np.int64)
        nnz = check(_NATIVE.rb_extract(
            self.nvertices, *self.addresses(), vertices.ctypes.data,
            offsets.ctypes.data, 1,
            out_indptr.ctypes.data, out_indices.ctypes.data,
            out_weights.ctypes.data, out_vweights.ctypes.data,
            edge_offsets.ctypes.data, scalars.ctypes.data,
        ))
        sub = CSRGraph(
            indptr=out_indptr,
            indices=out_indices[:nnz].copy(),
            eweights=out_weights[:nnz].copy(),
            vweights=out_vweights,
        )
        object.__setattr__(sub, "_total_vweight", int(scalars[1]))
        return sub, vertices


def _vertex_weights(vweights: np.ndarray | None, n: int) -> np.ndarray:
    """``vweights`` as int64 (all 1 when omitted), checked to be ``n`` long."""
    if vweights is None:
        return np.ones(n, dtype=np.int64)
    vweights = np.asarray(vweights, dtype=np.int64)
    if len(vweights) != n:
        raise ValueError("vweights length mismatch")
    return vweights


def graph_from_edges(
    nvertices: int,
    edges: np.ndarray,
    eweights: np.ndarray | None = None,
    vweights: np.ndarray | None = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an undirected edge list.

    Args:
        nvertices: Vertex count.
        edges: ``(m, 2)`` int array, each undirected edge once (any
            endpoint order); endpoints outside ``[0, nvertices)``,
            self-loops and duplicates are rejected.
        eweights: ``(m,)`` edge weights (default all 1).
        vweights: ``(n,)`` vertex weights (default all 1).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = len(edges)
    if eweights is None:
        eweights = np.ones(m, dtype=np.int64)
    else:
        eweights = np.asarray(eweights, dtype=np.int64)
        if len(eweights) != m:
            raise ValueError("eweights length mismatch")
    vweights = _vertex_weights(vweights, nvertices)
    if m and (edges.min() < 0 or edges.max() >= nvertices):
        raise ValueError("edge endpoint out of range")
    if m and (edges[:, 0] == edges[:, 1]).any():
        raise ValueError("self-loops are not allowed")
    # One int64 key per undirected edge (endpoints < n, so lo*n + hi
    # is unique and cannot overflow below n ~ 3e9).
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    key = np.sort(lo * nvertices + hi)
    if (key[1:] == key[:-1]).any():
        raise ValueError("duplicate edges are not allowed")
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    w = np.concatenate([eweights, eweights])
    # The directed keys are unique, so every sort gives this order; the
    # stable one is fastest on mesh edge lists, which come in sorted runs.
    order = np.argsort(src * nvertices + dst, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    indptr = np.searchsorted(src, np.arange(nvertices + 1)).astype(np.int64)
    return CSRGraph(indptr=indptr, indices=dst.copy(), eweights=w.copy(), vweights=vweights)


def mesh_graph(
    mesh,
    edge_weight: int = 8,
    corner_weight: int = 1,
    vweights: np.ndarray | None = None,
) -> CSRGraph:
    """The element-connectivity graph of a cubed-sphere mesh.

    Following the paper's Section 2: vertices are spectral elements
    (weight = computation per element, uniform by default); edges carry
    the amount of information exchanged across each boundary — ``np``
    GLL points for edge neighbors (SEAM uses ``np = 8``) and a single
    point for corner neighbors.

    Args:
        mesh: A :class:`repro.cubesphere.CubedSphereMesh`; its
            neighbor table is the graph's adjacency.
        edge_weight: Weight of edge-neighbor links (shared points).
        corner_weight: Weight of corner-neighbor links.
        vweights: Optional per-element computation weights.
    """
    k = mesh.nelem
    vweights = _vertex_weights(vweights, k)
    # Key each table entry as neighbor id * 8 + column: a row sort orders
    # the neighbors and carries each one's column, hence its edge/corner
    # weight; the missing (-1) entries sort first and are dropped.
    key = mesh.neighbors * 8 + np.arange(8)
    key.sort(axis=1)
    missing = np.flatnonzero(key < 0)
    key = np.delete(key, missing)
    rows = np.arange(k + 1)
    weights = np.repeat(np.array([edge_weight, corner_weight], dtype=np.int64), 4)
    return CSRGraph(
        indptr=8 * rows - np.searchsorted(missing // 8, rows),
        indices=key >> 3,
        eweights=weights[key & 7],
        vweights=vweights,
    )


def table_adjacency(mesh, edge_weight: int = 8) -> SimpleNamespace:
    """``mesh``'s ``(K, 8)`` neighbour table as a fixed-degree CSR, whose
    :func:`~repro.partition.metrics.part_metrics` (which skips ``-1``) equal
    ``mesh_graph(mesh, edge_weight)``'s; every element weighs 1."""
    k = mesh.nelem
    return SimpleNamespace(
        indptr=np.arange(0, 8 * k + 1, 8, dtype=np.int64),
        indices=mesh.neighbors.reshape(-1),
        eweights=np.tile(np.array([edge_weight] * 4 + [1] * 4, dtype=np.int64), k),
        vweights=None,
    )
