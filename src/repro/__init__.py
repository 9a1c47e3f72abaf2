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

import importlib

#: The module each top-level name comes from.  Names load on first use
#: (PEP 562), so ``import repro`` builds nothing: ``python -m repro``
#: imports this package before its entry point runs, and the entry
#: point reports a kernel build failure as one line.
_EXPORTS = {
    "CubedSphereCurve": "cubesphere",
    "CubedSphereMesh": "cubesphere",
    "cubed_sphere_curve": "cubesphere",
    "cubed_sphere_mesh": "cubesphere",
    "CSRGraph": "graphs",
    "graph_from_edges": "graphs",
    "mesh_graph": "graphs",
    "P690_CLUSTER": "machine",
    "MachineSpec": "machine",
    "PerformanceModel": "machine",
    "part_graph": "metis",
    "Partition": "partition",
    "PartitionQuality": "partition",
    "evaluate_partition": "partition",
    "load_balance": "partition",
    "sfc_partition": "partition",
    "MetricsRegistry": "telemetry",
    "TelemetrySession": "telemetry",
    "telemetry_session": "telemetry",
    "DEFAULT_COST_MODEL": "seam",
    "SEAMCostModel": "seam",
    "PartitionCache": "service",
    "PartitionEngine": "service",
    "PartitionRequest": "service",
    "PartitionResponse": "service",
    "SpaceFillingCurve": "sfc",
    "generate_curve": "sfc",
    "hilbert_curve": "sfc",
    "hilbert_peano_curve": "sfc",
    "peano_curve": "sfc",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, "__version__"])
