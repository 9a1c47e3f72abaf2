"""Reference partition-quality metrics: the library's NumPy implementation.

:func:`evaluate_partition`, :func:`edgecut` and
:func:`weighted_edgecut` are what
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
from repro.partition.metrics import PartitionQuality, load_balance


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


def evaluate_partition(
    graph: CSRGraph, partition: Partition
) -> PartitionQuality:
    """Every partition metric, from the pieces above.  Every directed
    cut edge ``v -> u`` adds its weight to ``spcv[part[v]]``."""
    sizes = partition.part_sizes()
    weights = partition.part_weights(graph.vweights)
    a = partition.assignment
    nparts = partition.nparts
    src = np.repeat(np.arange(graph.nvertices), graph.degrees())
    cut = a[src] != a[graph.indices]
    send_points = np.zeros(nparts, dtype=np.int64)
    np.add.at(send_points, a[src[cut]], graph.eweights[cut])
    is_boundary = np.zeros(graph.nvertices, dtype=bool)
    is_boundary[src[cut]] = True
    boundary = np.bincount(a[is_boundary], minlength=nparts).astype(np.int64)
    u, v, w = graph.edge_array()
    cutmask = a[u] != a[v]
    return PartitionQuality(
        method=partition.method,
        nparts=partition.nparts,
        lb_nelemd=load_balance(sizes),
        lb_weight=load_balance(weights),
        lb_spcv=load_balance(send_points),
        edgecut=int(cutmask.sum()),
        weighted_edgecut=int(w[cutmask].sum()),
        total_volume_points=int(send_points.sum()),
        boundary_vertices=int(boundary.sum()),
        nelemd=sizes,
        spcv=send_points,
    )
