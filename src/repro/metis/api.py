"""Public entry point for the METIS-style partitioners.

Mirrors the three algorithms the paper compares (Sec. 2):

* ``"rb"``   — recursive bisection (``pmetis``), best load balance;
* ``"kway"`` — multilevel K-way minimizing edgecut (``kmetis``);
* ``"tv"``   — K-way variant minimizing total communication volume.
"""

from __future__ import annotations

from ..graphs.csr import CSRGraph
from ..partition.base import Partition
from ..telemetry import inc, span
from .bisection import recursive_bisection
from .kway import multilevel_kway

__all__ = ["part_graph", "METIS_METHODS"]

METIS_METHODS = ("rb", "kway", "tv")

def part_graph(
    graph: CSRGraph,
    nparts: int,
    method: str = "kway",
    ubfactor: float | None = None,
    seed: int = 0,
) -> Partition:
    """Partition a graph with a METIS-style algorithm.

    Args:
        graph: Vertex/edge-weighted graph (see
            :func:`repro.graphs.mesh_graph` for the cubed-sphere).
        nparts: Number of parts.
        method: ``"rb"``, ``"kway"`` or ``"tv"``.
        ubfactor: Balance constraint; defaults to the METIS defaults
            (1.001 per bisection for RB, 1.03 global for K-way).
        seed: Determinism seed.

    Returns:
        A validated :class:`Partition` (no empty parts).
    """
    if method not in METIS_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METIS_METHODS}")
    inc("part_graph_total", method=method)
    with span("part_graph", "metis", method=method, nparts=int(nparts)):
        if method == "rb":
            # METIS 4's pmetis allowed ~1% imbalance per bisection; the
            # slack compounds over the recursion, which is why the paper's
            # Table 2 shows RB with nonzero LB(nelemd) at 768 processors.
            # Pass ubfactor=1.001 for a strict (near-exact) RB.
            part = recursive_bisection(
                graph,
                nparts,
                ubfactor=ubfactor if ubfactor is not None else 1.01,
                seed=seed,
            )
        else:
            part = multilevel_kway(
                graph,
                nparts,
                ubfactor=ubfactor if ubfactor is not None else 1.03,
                objective="cut" if method == "kway" else "volume",
                seed=seed,
            )
    # RB guarantees non-empty parts; K-way (like METIS 4) may leave a
    # part empty at O(1) vertices per part — callers see an idle rank.
    part.validate(allow_empty=(method != "rb"))
    return part
