#!/usr/bin/env python3
"""Quickstart: partition the cubed-sphere with a space-filling curve.

Builds the K=384 cubed-sphere of Dennis (2003), partitions it for 96
processors with the Hilbert-curve partitioner and with METIS-style
K-way, and compares the Table-2 quality metrics and simulated SEAM
performance on the NCAR IBM P690 machine model.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    P690_CLUSTER,
    PerformanceModel,
    evaluate_partition,
    mesh_graph,
    part_graph,
    sfc_partition,
)
from repro.cubesphere import cubed_sphere_mesh
from repro.experiments import format_table


def main() -> None:
    ne, nprocs = 8, 96
    mesh = cubed_sphere_mesh(ne)
    graph = mesh_graph(mesh)
    print(f"Cubed-sphere: Ne={ne}, K={mesh.nelem} spectral elements")
    print(f"Machine: {P690_CLUSTER.name}\n")

    model = PerformanceModel()
    rows = []
    for name, part in [
        ("sfc (Hilbert)", sfc_partition(ne, nprocs)),
        ("metis kway", part_graph(graph, nprocs, "kway")),
        ("metis rb", part_graph(graph, nprocs, "rb")),
    ]:
        q = evaluate_partition(graph, part)
        t = model.step_timing(part)
        rows.append(
            [
                name,
                f"{q.lb_nelemd:.3f}",
                f"{q.lb_spcv:.3f}",
                q.edgecut,
                f"{t.step_s * 1e6:.0f}",
                f"{t.sustained_flops / 1e9:.1f}",
            ]
        )
    print(
        format_table(
            ["method", "LB(nelemd)", "LB(spcv)", "edgecut", "time/step (us)", "Gflop/s"],
            rows,
            title=f"Partition quality and simulated SEAM performance, {nprocs} processors",
        )
    )
    print(
        "\nThe SFC partition is perfectly load balanced (LB = 0) because "
        f"{nprocs} divides K={mesh.nelem}; METIS trades balance for edgecut."
    )


if __name__ == "__main__":
    main()
