#!/usr/bin/env python
"""Stage times of the partition pipeline as K grows (in-process).

A cold ``/partition`` request builds the mesh, the weighted element
graph, the partition and its quality metrics; a SEAM run additionally
builds the DSS point map.  This harness times each of those steps on
its own, cold, at Ne = 16, 64, 256 (K = 1,536 / 24,576 / 393,216):

* ``mesh`` — ``CubedSphereMesh(ne)`` (corner-node ids + adjacency);
* ``graph`` — ``mesh_graph`` with the SEAM weights (np=8 / 1);
* ``partition`` — ``sfc_partition(ne, 96)`` with its position cache
  cleared first;
* ``evaluate`` — ``evaluate_partition`` of that partition;
* ``point_map`` — ``build_point_map`` at np=8.  It reads only the mesh
  and ``np`` of a geometry, so the harness passes those instead of the
  ``(K, np, np, ...)`` geometry stacks (about 3 GB at Ne=256).

Each stage reports the best of ``REPEAT`` (3) runs, so the
figures show where time goes; served-request speed claims come from
``perfbench/run.py``.  Writes ``benchmarks/results/pipeline_scaling.json``
and exits non-zero if a stage returns a wrong-sized result (node and
point counts, neighbor degrees, part sizes).

Run ``PYTHONPATH=src python benchmarks/bench_pipeline_scaling.py`` for
the full sweep or ``--ci`` for the Ne=16 row only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

RESULTS_PATH = HERE / "results" / "pipeline_scaling.json"

FULL_NES = (16, 64, 256)
CI_NES = (16,)
NPARTS = 96
NPTS = 8
REPEAT = 3


def _best(fn):
    """``(result, best wall seconds)`` of ``REPEAT`` calls of ``fn``."""
    best = float("inf")
    for _ in range(REPEAT):
        t0 = perf_counter()
        out = fn()
        best = min(best, perf_counter() - t0)
    return out, best


def measure(ne: int) -> tuple[dict, list[str]]:
    """Stage times at one resolution, plus any failed sanity checks."""
    import numpy as np

    from repro.cubesphere.mesh import CubedSphereMesh
    from repro.graphs import mesh_graph
    from repro.partition import evaluate_partition, sfc, sfc_partition
    from repro.seam.dss import build_point_map

    k = 6 * ne * ne
    times: dict[str, float] = {}
    mesh, times["mesh"] = _best(lambda: CubedSphereMesh(ne))
    graph, times["graph"] = _best(
        lambda: mesh_graph(mesh, edge_weight=NPTS, corner_weight=1)
    )

    def cold_partition():
        sfc.POSITIONS_CACHE.clear()
        return sfc_partition(ne, NPARTS)

    part, times["partition"] = _best(cold_partition)
    _, times["evaluate"] = _best(lambda: evaluate_partition(graph, part))
    geom = SimpleNamespace(mesh=mesh, npts=NPTS)
    pmap, times["point_map"] = _best(lambda: build_point_map(geom))

    failures = []
    if mesh.nnodes != k + 2:
        failures.append(f"ne={ne}: {mesh.nnodes} mesh nodes, want {k + 2}")
    if not (mesh.edge_adjacency.degrees() == 4).all():
        failures.append(f"ne={ne}: an element lacks 4 edge neighbors")
    if pmap.npoints != 6 * (ne * (NPTS - 1)) ** 2 + 2:
        failures.append(f"ne={ne}: {pmap.npoints} DSS points")
    sizes = np.bincount(part.assignment, minlength=NPARTS)
    if sizes.sum() != k or sizes.min() == 0:
        failures.append(f"ne={ne}: partition sizes {sizes.min()}..{sizes.max()}")
    row = {
        "ne": ne,
        "k": k,
        "nparts": NPARTS,
        "npts": NPTS,
        "seconds": {name: round(t, 6) for name, t in times.items()},
        "total_s": round(sum(times.values()), 6),
    }
    return row, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ci", action="store_true", help="Ne=16 row only")
    args = parser.parse_args(argv)

    from repro._native import LIB

    rows: list[dict] = []
    failures: list[str] = []
    stages = ("mesh", "graph", "partition", "evaluate", "point_map")
    print(f"{'Ne':>5} {'K':>9} " + " ".join(f"{s + ' ms':>13}" for s in stages))
    for ne in CI_NES if args.ci else FULL_NES:
        row, bad = measure(ne)
        rows.append(row)
        failures += bad
        print(
            f"{ne:5d} {row['k']:9,d} "
            + " ".join(f"{row['seconds'][s] * 1e3:13.1f}" for s in stages)
        )

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "schema": 1,
                "profile": "ci" if args.ci else "full",
                "ckernels": LIB is not None,
                "repeat": REPEAT,
                "rows": rows,
                "failures": failures,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {RESULTS_PATH}")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("pipeline-scaling bench ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
