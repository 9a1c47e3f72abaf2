"""Multilevel K-way partitioning (METIS KWAY and its TV variant).

``kmetis`` semantics: coarsen the graph aggressively, compute an
initial K-way partition of the coarsest graph via recursive bisection,
then uncoarsen with greedy K-way refinement at every level.  Unlike RB,
the refinement works against a *global* balance constraint (the METIS
default allows 3% imbalance), trading balance for cut — which is
exactly the behaviour the paper measured at O(1) elements per
processor: "The K-way (KWAY) algorithm generates partitions that
minimize edgecuts but may result in sub-optimal load balance."

The TV variant runs the identical pipeline with the refinement gain
switched to total communication volume.
"""

from __future__ import annotations

from ..graphs.csr import CSRGraph
from ..partition.base import Partition
from ..telemetry import span
from .coarsen import coarsen_to
from .bisection import recursive_bisection
from .refine import greedy_kway_refine

__all__ = ["multilevel_kway"]

#: Coarsening target: METIS stops around ``max(c * nparts, small)``
#: vertices so the coarsest graph still has room for k parts.
COARSEN_VERTICES_PER_PART = 8
MIN_COARSE_VERTICES = 128


def multilevel_kway(
    graph: CSRGraph,
    nparts: int,
    ubfactor: float = 1.03,
    objective: str = "cut",
    seed: int = 0,
) -> Partition:
    """Partition with multilevel K-way.

    Args:
        graph: Graph to partition.
        nparts: Part count.
        ubfactor: Global balance constraint (METIS default 1.03).
        objective: ``"cut"`` (KWAY) or ``"volume"`` (TV).
        seed: Determinism seed.

    Returns:
        A :class:`Partition` labeled ``"kway"`` or ``"tv"``.
    """
    n = graph.nvertices
    if not 1 <= nparts <= n:
        raise ValueError("need 1 <= nparts <= nvertices")
    target = max(COARSEN_VERTICES_PER_PART * nparts, MIN_COARSE_VERTICES)
    with span("coarsen", "metis"):
        levels = coarsen_to(graph, target, seed=seed)
    coarsest = levels[-1].graph if levels else graph
    # Initial K-way partition of the coarsest graph.  A slightly loose
    # per-bisection tolerance mirrors kmetis (the refinement owns the
    # final balance, not the initial split).
    with span("initial", "metis"):
        init = recursive_bisection(
            coarsest, nparts, ubfactor=1.01, seed=seed, initial="ggg"
        )
    assignment = init.assignment.copy()
    with span("refine", "metis"):
        assignment = greedy_kway_refine(
            coarsest, assignment, nparts, ubfactor, objective, seed=seed
        )
    fine_graphs = [graph] + [lv.graph for lv in levels[:-1]]
    with span("uncoarsen", "metis"):
        for level, fine in zip(reversed(levels), reversed(fine_graphs)):
            assignment = assignment[level.fine_to_coarse]
            assignment = greedy_kway_refine(
                fine, assignment, nparts, ubfactor, objective, seed=seed
            )
    method = "kway" if objective == "cut" else "tv"
    # NOTE: like METIS 4's kmetis, the K-way pipeline may return empty
    # parts when nparts approaches the vertex count (refinement merges
    # O(1)-element parts to cut edges within its balance tolerance).
    # This is deliberate — the resulting computational load imbalance
    # at O(1) elements per processor is exactly the METIS behaviour the
    # paper measured SEAM against; the performance model treats an
    # empty part as an idle processor.
    return Partition(assignment, nparts=nparts, method=method)
