"""repro — Partitioning with Space-Filling Curves on the Cubed-Sphere.

A complete reproduction of Dennis (IPPS 2003): Hilbert, meandering
Peano and nested Hilbert-Peano space-filling curves; the cubed-sphere
spectral-element mesh; a from-scratch METIS-style multilevel graph
partitioner (RB / KWAY / TV); partition-quality metrics; a
spectral-element transport core (the SEAM analog); and a machine model
of the NCAR IBM P690 cluster that regenerates every table and figure of
the paper's evaluation.

Quickstart::

    from repro import sfc_partition, evaluate_partition, mesh_graph
    from repro.cubesphere import cubed_sphere_mesh

    mesh = cubed_sphere_mesh(ne=8)          # K = 384 elements
    part = sfc_partition(ne=8, nparts=96)   # Hilbert-curve partition
    graph = mesh_graph(mesh)
    print(evaluate_partition(graph, part))
"""

from .cubesphere import (
    CubedSphereCurve,
    CubedSphereMesh,
    cubed_sphere_curve,
    cubed_sphere_mesh,
)
from .graphs import CSRGraph, graph_from_edges, mesh_graph
from .machine import P690_CLUSTER, MachineSpec, PerformanceModel
from .metis import part_graph
from .partition import (
    Partition,
    PartitionQuality,
    evaluate_partition,
    load_balance,
    sfc_partition,
)
from .telemetry import MetricsRegistry, TelemetrySession, telemetry_session
from .seam import DEFAULT_COST_MODEL, SEAMCostModel
from .service import (
    PartitionCache,
    PartitionEngine,
    PartitionRequest,
    PartitionResponse,
)
from .sfc import (
    SpaceFillingCurve,
    generate_curve,
    hilbert_curve,
    hilbert_peano_curve,
    peano_curve,
)

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "CubedSphereCurve",
    "CubedSphereMesh",
    "DEFAULT_COST_MODEL",
    "MachineSpec",
    "MetricsRegistry",
    "P690_CLUSTER",
    "Partition",
    "PartitionCache",
    "PartitionEngine",
    "PartitionQuality",
    "PartitionRequest",
    "PartitionResponse",
    "PerformanceModel",
    "SEAMCostModel",
    "SpaceFillingCurve",
    "TelemetrySession",
    "__version__",
    "cubed_sphere_curve",
    "cubed_sphere_mesh",
    "evaluate_partition",
    "generate_curve",
    "graph_from_edges",
    "hilbert_curve",
    "hilbert_peano_curve",
    "load_balance",
    "mesh_graph",
    "part_graph",
    "peano_curve",
    "sfc_partition",
    "telemetry_session",
]
