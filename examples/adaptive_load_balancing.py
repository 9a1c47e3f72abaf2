#!/usr/bin/env python3
"""Dynamic load balancing with SFC re-cuts: a moving storm.

The paper's introduction credits space-filling curves' success in
adaptive mesh refinement; this example shows why on the cubed-sphere.
A "storm" (a patch of elements with 4x computational cost, e.g. active
convection physics) circles the equator.  At every step the load is
rebalanced two ways:

* re-cutting the fixed global SFC under the new weights
  (``repro.partition.LoadTracker``, which plans each step with
  ``plan_repartition``), and
* running a fresh METIS-style K-way partition of the weighted graph.

Both achieve similar load balance — but the SFC re-cut migrates a
small fraction of the elements, while the fresh graph partition
reshuffles most of the sphere every time.

Run:  python examples/adaptive_load_balancing.py [Ne] [Nproc]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import cubed_sphere_mesh, mesh_graph, part_graph
from repro.experiments import format_table
from repro.partition import (
    LoadTracker,
    load_balance,
    migration_cost,
)


def storm_weights(mesh, lon_center: float, boost: float = 4.0) -> np.ndarray:
    """Element weights with a storm patch centered at a longitude."""
    lon, lat = mesh.centers_lonlat
    dlon = np.angle(np.exp(1j * (lon - lon_center)))
    in_storm = (np.abs(dlon) < 0.5) & (np.abs(lat) < 0.5)
    return np.where(in_storm, boost, 1.0)


def main() -> None:
    ne = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    nproc = int(sys.argv[2]) if len(sys.argv) > 2 else 48
    mesh = cubed_sphere_mesh(ne)
    print(f"K={mesh.nelem}, Nproc={nproc}, storm circling the equator\n")

    tracker = LoadTracker(ne, nparts=nproc)
    metis_prev = None
    rows = []
    for step, lon_center in enumerate(np.linspace(0, 2 * np.pi, 9)[:-1]):
        w = storm_weights(mesh, lon_center)
        sfc_part = tracker.update(w)
        # Fresh METIS partition of the weighted graph.
        g = mesh_graph(mesh, vweights=np.round(w).astype(np.int64))
        metis_part = part_graph(g, nproc, "kway", seed=step)
        metis_loads = np.bincount(
            metis_part.assignment, weights=w, minlength=nproc
        )
        sfc_entry = tracker.history[-1]
        if metis_prev is not None:
            metis_moved = migration_cost(metis_prev, metis_part).fraction_moved
        else:
            metis_moved = 0.0
        metis_prev = metis_part
        rows.append(
            [
                step,
                f"{np.degrees(lon_center):.0f}",
                f"{sfc_entry['lb']:.3f}",
                f"{100 * sfc_entry['fraction_moved']:.1f}%",
                f"{load_balance(metis_loads):.3f}",
                f"{100 * metis_moved:.1f}%",
            ]
        )
    print(
        format_table(
            [
                "step",
                "storm lon",
                "SFC LB",
                "SFC moved",
                "METIS LB",
                "METIS moved",
            ],
            rows,
            title="Rebalancing a moving hotspot: SFC re-cut vs fresh K-way",
        )
    )
    sfc_avg = np.mean([h["fraction_moved"] for h in tracker.history[1:]])
    print(
        f"\nAverage migration per rebalance: SFC {100 * sfc_avg:.1f}% of elements; "
        "fresh graph partitioning reshuffles most of the mesh."
    )


if __name__ == "__main__":
    main()
