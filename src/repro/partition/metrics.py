"""Partition-quality metrics: the quantities of the paper's Table 2.

Definitions follow Section 2 of Dennis (2003):

* ``LB(S) = (max S - avg S) / max S``  (Eq. 1) — 0 is perfect balance;
* *computational load balance* ``LB(nelemd)`` uses ``S`` = vertices
  (elements) per sub-graph;
* *edgecut* — the number of graph edges that straddle sub-graphs;
* *total communication volume* — the data sent between sub-graphs.  The
  paper counts "vertices whose edges are cut" (METIS's unit-size
  definition) but reports TCV in Mbytes for SEAM; we compute the
  points exchanged: for every element, the points of each link to a
  neighbour in another part (edge weight: ``np`` across an edge, 1
  across a corner), summed per sending processor and converted to
  bytes with a configurable per-point size.  The unit-size METIS count
  is also exposed (:attr:`PartitionQuality.boundary_vertices`);
* *communication load balance* ``LB(spcv)`` uses ``S`` = per-processor
  communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._native import LIB as _NATIVE
from .._native import check
from ..graphs.csr import CSRGraph
from .base import Partition

__all__ = [
    "load_balance",
    "part_metrics",
    "edgecut",
    "weighted_edgecut",
    "PartitionQuality",
    "evaluate_partition",
]


def load_balance(values: np.ndarray) -> float:
    """The paper's Eq. 1: ``LB(S) = (max S - avg S) / max S``.

    Returns 0.0 for perfectly balanced (or empty/all-zero) inputs;
    approaches 1.0 as the maximum dwarfs the average.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    mx = values.max()
    if mx <= 0:
        return 0.0
    return float((mx - values.mean()) / mx)


def part_metrics(graph, assignment, nparts: int) -> tuple[np.ndarray, int, int]:
    """``(parts, edgecut, weighted_edgecut)`` of an assignment, from one
    pass of the compiled ``part_metrics`` kernel over ``graph``: a
    :class:`CSRGraph`, or a mesh's :func:`~repro.graphs.csr.table_adjacency`.

    ``parts`` is ``(4, nparts)`` int64: element counts, vertex weights,
    send points and boundary vertices per part.  ``ValueError`` for an
    array of the wrong shape, ``nparts < 1``, or an id out of range.
    """
    vw = graph.vweights
    arrays = [np.ascontiguousarray(x, dtype=np.int64) for x in (
        graph.indptr, graph.indices, graph.eweights, assignment, () if vw is None else vw)]
    indptr, indices, eweights, assignment, vweights = arrays
    n = len(assignment)
    if any(x.ndim != 1 for x in arrays) or (len(indptr), len(eweights)) != (
        n + 1, len(indices)) or (vw is not None and len(vweights) != n):
        raise ValueError("need 1-D arrays: n + 1 offsets, one edge weight per "
                         "neighbour, one vertex weight (or none) and part per vertex")
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    parts = np.empty((4, int(nparts)), dtype=np.int64)
    cuts = np.empty(2, dtype=np.int64)
    check(_NATIVE.part_metrics(
        n, indptr.ctypes.data, indices.ctypes.data, eweights.ctypes.data,
        0 if vw is None else vweights.ctypes.data, len(indices),
        assignment.ctypes.data, int(nparts), parts.ctypes.data, cuts.ctypes.data,
    ))
    return parts, int(cuts[0]), int(cuts[1])


def edgecut(graph: CSRGraph, partition: Partition) -> int:
    """Number of graph edges with endpoints in different parts."""
    return part_metrics(graph, partition.assignment, partition.nparts)[1]


def weighted_edgecut(graph: CSRGraph, partition: Partition) -> int:
    """Total weight of cut edges (METIS's KWAY objective)."""
    return part_metrics(graph, partition.assignment, partition.nparts)[2]


@dataclass(frozen=True)
class PartitionQuality:
    """All Table-2 metrics of one partition.

    Attributes:
        method: Partitioner label.
        nparts: Processor count.
        lb_nelemd: Computational load balance ``LB(nelemd)`` (Eq. 1
            over per-processor element counts; weighted variant in
            :attr:`lb_weight` when vertex weights are non-uniform).
        lb_weight: ``LB`` over per-processor vertex *weight*.
        lb_spcv: Communication load balance ``LB(spcv)``.
        edgecut: Unweighted cut-edge count.
        weighted_edgecut: Cut weight (shared points across cuts).
        total_volume_points: TCV in point units.
        boundary_vertices: METIS unit-size total volume (count of
            vertices with a cut edge).
        nelemd: Per-processor element counts.
        spcv: Per-processor send volumes (points).
    """

    method: str
    nparts: int
    lb_nelemd: float
    lb_weight: float
    lb_spcv: float
    edgecut: int
    weighted_edgecut: int
    total_volume_points: int
    boundary_vertices: int
    nelemd: np.ndarray = field(repr=False)
    spcv: np.ndarray = field(repr=False)

    def total_volume_bytes(self, bytes_per_point: int) -> int:
        return self.total_volume_points * bytes_per_point

    def total_volume_mbytes(self, bytes_per_point: int) -> float:
        return self.total_volume_bytes(bytes_per_point) / 1.0e6


def evaluate_partition(graph, partition: Partition) -> PartitionQuality:
    """Every partition metric, from one :func:`part_metrics` pass over a
    :class:`CSRGraph` or a mesh's neighbour table (same metrics)."""
    (sizes, weights, spcv, boundary), cut, wcut = part_metrics(
        graph, partition.assignment, partition.nparts
    )
    return PartitionQuality(
        method=partition.method,
        nparts=partition.nparts,
        lb_nelemd=load_balance(sizes),
        lb_weight=load_balance(weights),
        lb_spcv=load_balance(spcv),
        edgecut=cut,
        weighted_edgecut=wcut,
        total_volume_points=int(spcv.sum()),
        boundary_vertices=int(boundary.sum()),
        nelemd=sizes,
        spcv=spcv,
    )
