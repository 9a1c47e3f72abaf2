"""Structural analysis of a partition: shape, connectivity, interfaces.

The scalar metrics of :mod:`repro.partition.metrics` say *how good* a
partition is; this module says *why*: whether each processor's patch is
connected, how its communication splits between edge and corner
interfaces, and how far apart its elements sit.  These are the
quantities one inspects when a partitioner underperforms (e.g. METIS
parts that look balanced but are fragmented into islands).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.traversal import bfs_levels, connected_components
from .base import Partition
from .metrics import part_metrics

__all__ = ["PartShape", "PartitionStructure", "analyze_structure"]


@dataclass(frozen=True)
class PartShape:
    """Shape statistics of one part.

    Attributes:
        part: Part id.
        size: Element count.
        components: Connected components of the induced subgraph
            (1 = a single patch; more = fragmented).
        diameter: Hop diameter of the largest component (0 for
            singleton parts).
        boundary_elements: Elements with at least one cut edge.
    """

    part: int
    size: int
    components: int
    diameter: int
    boundary_elements: int

    @property
    def is_connected(self) -> bool:
        return self.components <= 1

    @property
    def boundary_fraction(self) -> float:
        return self.boundary_elements / self.size if self.size else 0.0


@dataclass(frozen=True)
class PartitionStructure:
    """Whole-partition structural summary.

    Attributes:
        shapes: Per-part shapes.
        fragmented_parts: Count of parts with more than one component.
        max_diameter: Largest part diameter.
        mean_boundary_fraction: Mean fraction of boundary elements.
        cut_weight_by_kind: Cut weight split by edge weight value
            (for mesh graphs: full-edge vs corner interfaces).
    """

    shapes: tuple[PartShape, ...]
    fragmented_parts: int
    max_diameter: int
    mean_boundary_fraction: float
    cut_weight_by_kind: dict[int, int]

    def worst_parts(self, k: int = 5) -> list[PartShape]:
        """The ``k`` most fragmented / stretched parts."""
        return sorted(
            self.shapes, key=lambda s: (-s.components, -s.diameter)
        )[:k]


def _diameter_of(graph: CSRGraph, members: np.ndarray) -> int:
    """Hop diameter of the largest component induced by ``members``."""
    if len(members) <= 1:
        return 0
    sub, _ = graph.subgraph(members)
    comp = connected_components(sub)
    # Restrict to the largest component.
    sizes = np.bincount(comp)
    main = int(np.argmax(sizes))
    mask = comp == main
    start = int(np.flatnonzero(mask)[0])
    # Double BFS gives the exact diameter on trees and a good lower
    # bound generally; adequate for diagnostics.
    lv1 = bfs_levels(sub, start, mask)
    far = int(np.argmax(lv1))
    lv2 = bfs_levels(sub, far, mask)
    return int(lv2.max())


def analyze_structure(graph: CSRGraph, partition: Partition) -> PartitionStructure:
    """Compute the structural report of a partition.

    Args:
        graph: Element-connectivity graph.
        partition: Assignment to analyze.
    """
    a = partition.assignment
    boundary = part_metrics(graph, a, partition.nparts)[0][3]
    # Cut weight by interface kind (each undirected edge counted once).
    u, v, w = graph.edge_array()
    cut_w = w[a[u] != a[v]]
    kinds = {int(wv): int((cut_w == wv).sum() * wv) for wv in np.unique(cut_w)}
    shapes = []
    for part in range(partition.nparts):
        members = np.flatnonzero(a == part)
        if len(members) == 0:
            shapes.append(
                PartShape(part=part, size=0, components=0, diameter=0,
                          boundary_elements=0)
            )
            continue
        sub, _ = graph.subgraph(members)
        ncomp = int(connected_components(sub).max()) + 1
        shapes.append(
            PartShape(
                part=part,
                size=len(members),
                components=ncomp,
                diameter=_diameter_of(graph, members),
                boundary_elements=int(boundary[part]),
            )
        )
    nonempty = [s for s in shapes if s.size]
    return PartitionStructure(
        shapes=tuple(shapes),
        fragmented_parts=sum(1 for s in nonempty if s.components > 1),
        max_diameter=max((s.diameter for s in nonempty), default=0),
        mean_boundary_fraction=float(
            np.mean([s.boundary_fraction for s in nonempty]) if nonempty else 0.0
        ),
        cut_weight_by_kind=kinds,
    )
