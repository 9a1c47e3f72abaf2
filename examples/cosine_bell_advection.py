#!/usr/bin/env python3
"""Run the SEAM-analog spectral-element solver on a standard test case.

Advects a cosine bell once around the sphere by solid-body rotation
(Williamson et al. test case 1) on an SFC-partitioned cubed-sphere,
reporting error norms, mass conservation, and the communication volume
each processor's DSS exchange would incur per step — connecting the
numerical substrate to the partitioning study.

Run:  python examples/cosine_bell_advection.py [Ne] [revolutions]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import sfc_partition
from repro.experiments import format_table
from repro.seam import (
    TransportSolver,
    build_geometry,
    build_halo_schedule,
    build_point_map,
    cosine_bell,
    rotate_about_axis,
    solid_body_wind,
)


def main() -> None:
    ne = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    rev = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25
    npts = 8  # SEAM's polynomial order
    geom = build_geometry(ne, npts)
    xyz = geom.xyz
    axis = np.array([0.0, 2.0**-0.5, 2.0**-0.5])  # oblique: crosses faces
    center = np.array([1.0, 0.0, 0.0])

    print(f"Grid: Ne={ne}, np={npts}, K={geom.mesh.nelem} elements, "
          f"{geom.mesh.nelem * npts * npts} GLL points")
    wind = solid_body_wind(xyz, axis, omega=1.0)
    solver = TransportSolver(geom, wind)
    q0 = cosine_bell(xyz, center)
    angle = 2 * np.pi * rev
    mass0 = solver.dss.integrate(q0)

    t0 = time.perf_counter()
    q = solver.run(q0, t_end=angle, cfl=0.4)
    elapsed = time.perf_counter() - t0

    departed = rotate_about_axis(xyz, axis, -angle)
    ref = cosine_bell(departed, center)
    err = q - ref
    l2 = float(np.sqrt((err**2).mean() / (ref**2).mean()))
    linf = float(np.abs(err).max())
    mass = solver.dss.integrate(q)

    print(
        format_table(
            ["quantity", "value"],
            [
                ["revolutions", rev],
                ["RHS evaluations", solver.rhs_evals],
                ["relative L2 error", f"{l2:.2e}"],
                ["Linf error", f"{linf:.2e}"],
                ["mass drift", f"{abs(mass - mass0) / mass0:.2e}"],
                ["wall time (s)", f"{elapsed:.2f}"],
            ],
            title="Solid-body advection of a cosine bell",
        )
    )

    # Per-processor DSS exchange volume under an SFC partition.
    nproc = min(24, geom.mesh.nelem)
    while geom.mesh.nelem % nproc:
        nproc -= 1
    part = sfc_partition(ne, nproc)
    sched = build_halo_schedule(build_point_map(ne, npts), part)
    send = np.zeros(nproc)
    for (src, _dst), pts in sched.items():
        send[src] += pts
    print(
        f"\nSFC partition on {nproc} ranks: "
        f"{sum(sched.values())} point values exchanged per DSS, "
        f"per-rank max/mean = {send.max():.0f}/{send.mean():.1f} "
        f"(LB(spcv) = {(send.max() - send.mean()) / send.max():.3f})"
    )


if __name__ == "__main__":
    main()
