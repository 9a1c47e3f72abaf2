"""Reference partition-quality metrics: the library's NumPy implementation.

:func:`evaluate_partition`, :func:`communication_pattern`,
:func:`edgecut` and :func:`weighted_edgecut` are what
:mod:`repro.partition.metrics` computed before its compiled
``part_metrics`` pass: ``np.unique`` and ``np.add.at`` over the
directed edge list, and :meth:`CSRGraph.edge_array` for the cuts.
They stay here as the oracle the kernel must match bit for bit.  They
read a :class:`~repro.graphs.csr.CSRGraph` only (no ``-1`` entries).
Per-part vertex weights go through ``np.bincount``'s float64, so they
are exact while every part's weight stays below 2^53.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.partition.base import Partition
from repro.partition.metrics import (
    CommunicationPattern,
    PartitionQuality,
    load_balance,
)


def edgecut(graph: CSRGraph, partition: Partition) -> int:
    """Number of graph edges with endpoints in different parts."""
    u, v, _ = graph.edge_array()
    a = partition.assignment
    return int((a[u] != a[v]).sum())


def weighted_edgecut(graph: CSRGraph, partition: Partition) -> int:
    """Total weight of cut edges."""
    u, v, w = graph.edge_array()
    a = partition.assignment
    return int(w[(a[u] != a[v])].sum())


def communication_pattern(
    graph: CSRGraph, partition: Partition
) -> CommunicationPattern:
    """Every directed cut edge ``v -> u`` adds its weight to the
    ``(part[v], part[u])`` pair and to ``send_points[part[v]]``."""
    a = partition.assignment
    nparts = partition.nparts
    src = np.repeat(np.arange(graph.nvertices), graph.degrees())
    dst = graph.indices
    w = graph.eweights
    cut = a[src] != a[dst]
    csrc, cdst, cw = src[cut], dst[cut], w[cut]
    psrc, pdst = a[csrc], a[cdst]
    send_points = np.zeros(nparts, dtype=np.int64)
    np.add.at(send_points, psrc, cw)
    keys = psrc * nparts + pdst
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, cw)
    pair_points = {
        (int(k // nparts), int(k % nparts)): int(s) for k, s in zip(uniq, sums)
    }
    message_counts = np.zeros(nparts, dtype=np.int64)
    for s, _ in pair_points:
        message_counts[s] += 1
    is_boundary = np.zeros(graph.nvertices, dtype=bool)
    is_boundary[csrc] = True
    boundary_vertices = np.bincount(
        a[is_boundary], minlength=nparts
    ).astype(np.int64)
    return CommunicationPattern(
        nparts=nparts,
        send_points=send_points,
        pair_points=pair_points,
        message_counts=message_counts,
        boundary_vertices=boundary_vertices,
    )


def evaluate_partition(
    graph: CSRGraph, partition: Partition
) -> PartitionQuality:
    """Every partition metric, from the pieces above."""
    sizes = partition.part_sizes()
    weights = partition.part_weights(graph.vweights)
    comm = communication_pattern(graph, partition)
    u, v, w = graph.edge_array()
    a = partition.assignment
    cutmask = a[u] != a[v]
    return PartitionQuality(
        method=partition.method,
        nparts=partition.nparts,
        lb_nelemd=load_balance(sizes),
        lb_weight=load_balance(weights),
        lb_spcv=load_balance(comm.send_points),
        edgecut=int(cutmask.sum()),
        weighted_edgecut=int(w[cutmask].sum()),
        total_volume_points=comm.total_points(),
        boundary_vertices=int(comm.boundary_vertices.sum()),
        nelemd=sizes,
        spcv=comm.send_points,
    )
