#!/usr/bin/env python3
"""Partition a full climate-resolution cubed-sphere, the paper's use case.

Reproduces the operational decision the paper supports: given a SEAM
climate run at K=1536 elements (Ne=16) on the 768-processor IBM P690,
which partitioner should drive the decomposition?  Prints the Table-2
statistics, the rank->node communication locality, and a weighted-
element variant (land/sea cost asymmetry) exercising the weighted SFC
cuts.

Run:  python examples/climate_partitioning.py [Ne] [Nproc]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import (
    PerformanceModel,
    evaluate_partition,
    mesh_graph,
    part_graph,
    sfc_partition,
)
from repro.cubesphere import cubed_sphere_mesh
from repro.experiments import format_table
from repro.machine import P690_CLUSTER


def node_locality(model, partition) -> float:
    """Fraction of exchanged halo points that stay inside an SMP node."""
    intra = total = 0
    for (src, dst), pts in model.halo_schedule(partition).items():
        total += pts
        if P690_CLUSTER.node_of(src) == P690_CLUSTER.node_of(dst):
            intra += pts
    return intra / total if total else 1.0


def main() -> None:
    ne = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    nproc = int(sys.argv[2]) if len(sys.argv) > 2 else 768
    mesh = cubed_sphere_mesh(ne)
    graph = mesh_graph(mesh)
    model = PerformanceModel()
    print(f"Climate configuration: Ne={ne}, K={mesh.nelem}, Nproc={nproc}\n")

    rows = []
    for method in ("sfc", "kway", "tv", "rb"):
        part = (
            sfc_partition(ne, nproc)
            if method == "sfc"
            else part_graph(graph, nproc, method)
        )
        q = evaluate_partition(graph, part)
        t = model.step_timing(part)
        rows.append(
            [
                method,
                f"{q.lb_nelemd:.3f}",
                f"{q.lb_spcv:.3f}",
                q.edgecut,
                f"{100 * node_locality(model, part):.0f}%",
                f"{t.step_s * 1e6:.0f}",
                f"{t.sustained_flops / 1e9:.0f}",
            ]
        )
    print(
        format_table(
            [
                "method",
                "LB(nelemd)",
                "LB(spcv)",
                "edgecut",
                "intra-node comm",
                "time/step (us)",
                "Gflop/s",
            ],
            rows,
            title="Partitioner comparison (paper Table 2 + node locality)",
        )
    )

    # Weighted variant: elements over "land" (one hemisphere) cost 1.5x
    # (e.g. extra physics), exercising the weighted SFC cutter.
    print("\nWeighted elements (land columns cost 1.5x):")
    land = mesh.centers_xyz[:, 0] > 0
    weights = np.where(land, 1.5, 1.0)
    part_w = sfc_partition(ne, nproc, weights=weights)
    part_u = sfc_partition(ne, nproc)
    loads_w = np.array(
        [weights[part_w.members(p)].sum() for p in range(nproc)]
    )
    loads_u = np.array(
        [weights[part_u.members(p)].sum() for p in range(nproc)]
    )
    print(
        format_table(
            ["cutter", "max load", "mean load", "LB(load)"],
            [
                [
                    "uniform cuts",
                    f"{loads_u.max():.1f}",
                    f"{loads_u.mean():.2f}",
                    f"{(loads_u.max() - loads_u.mean()) / loads_u.max():.3f}",
                ],
                [
                    "weighted cuts",
                    f"{loads_w.max():.1f}",
                    f"{loads_w.mean():.2f}",
                    f"{(loads_w.max() - loads_w.mean()) / loads_w.max():.3f}",
                ],
            ],
        )
    )


if __name__ == "__main__":
    main()
