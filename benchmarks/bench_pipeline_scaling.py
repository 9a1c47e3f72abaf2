#!/usr/bin/env python
"""Stage times of the partition pipeline as K grows (in-process).

A cold ``/partition`` request builds the mesh, the weighted element
graph, the partition and its quality metrics; a SEAM run additionally
builds the DSS point map.  This harness times each of those steps on
its own, cold, at Ne = 16, 64, 256, 512 (K = 1,536 / 24,576 / 393,216 /
1,572,864):

* ``mesh`` — ``CubedSphereMesh(ne)`` (the closed-form neighbor table);
* ``graph`` — ``mesh_graph`` with the SEAM weights (np=8 / 1);
* ``partition`` — ``sfc_partition(ne, 96)`` with its position cache
  cleared first;
* ``evaluate`` — ``evaluate_partition`` of that partition on the graph;
* ``table`` — the mesh's neighbour table as a fixed-degree CSR
  (``table_adjacency``, built on every evaluation from the table);
* ``evaluate_table`` — ``evaluate_partition`` on that table (these
  two are left out of ``total_s``, which sums the graph path);
* ``point_map`` — ``build_point_map`` at np=8.  It takes only ``ne``
  and ``np``, so no ``(K, np, np, ...)`` geometry stacks (about 3 GB at
  Ne=256) are built.  It is skipped above ``POINT_MAP_MAX_NE`` (256): at Ne=512 it would need
  about 7 GB.

Each stage reports the best of ``REPEAT`` (3) runs, so the
figures show where time goes; served-request speed claims come from
``perfbench/run.py``.  Next to the stages, ``sfc_request_s`` times the
path a cold ``sfc`` request takes — ``run_pipeline("sfc", ne, 96)``
with every memo cleared: mesh, cut, and metrics from the table, with
no graph.  Writes ``benchmarks/results/pipeline_scaling.json``
(``pipeline_scaling_ci.json`` under ``--ci``, so a CI run leaves the
committed full profile alone) and exits non-zero if a stage returns a
wrong-sized result (neighbor degrees, graph and point counts, part
sizes), if the table's metrics differ from the graph's, if the request
path builds a graph, or if ``evaluate_table`` takes more than
``EVALUATE_BUDGET_S`` (15 ms) at Ne=256.

Run ``PYTHONPATH=src python benchmarks/bench_pipeline_scaling.py`` for
the full sweep or ``--ci`` for the Ne=16 row only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

RESULTS_PATH = HERE / "results" / "pipeline_scaling.json"

FULL_NES = (16, 64, 256, 512)
CI_NES = (16,)
NPARTS = 96
NPTS = 8
POINT_MAP_MAX_NE = 256
REPEAT = 3
EVALUATE_BUDGET_S = {256: 0.015}
#: Stages of the table path, left out of ``total_s`` (the graph path's sum).
TABLE_STAGES = ("table", "evaluate_table")


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
    from repro.graphs.csr import table_adjacency
    from repro.partition import evaluate_partition, sfc, sfc_partition
    from repro.partition.pipeline import (
        clear_stage_caches,
        run_pipeline,
        stage_cache_stats,
    )
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
    quality, times["evaluate"] = _best(lambda: evaluate_partition(graph, part))

    table, times["table"] = _best(lambda: table_adjacency(mesh, NPTS))
    from_table, times["evaluate_table"] = _best(lambda: evaluate_partition(table, part))

    def cold_request():
        clear_stage_caches()
        sfc.POSITIONS_CACHE.clear()
        return run_pipeline("sfc", ne, NPARTS, npts=NPTS)

    result, request_s = _best(cold_request)
    failures = []
    if stage_cache_stats()["graph"]["misses"]:
        failures.append(f"ne={ne}: a cold sfc request built the graph")
    if not all(
        np.array_equal(getattr(q, name), getattr(quality, name))
        for q in (from_table, result.quality) for name in vars(quality)
    ):
        failures.append(f"ne={ne}: the table's metrics differ from the graph's")
    budget = EVALUATE_BUDGET_S.get(ne)
    if budget is not None and times["evaluate_table"] > budget:
        failures.append(
            f"ne={ne}: evaluate_table {1e3 * times['evaluate_table']:.1f} ms "
            f"> {1e3 * budget:.0f} ms"
        )
    if ne <= POINT_MAP_MAX_NE:
        pmap, times["point_map"] = _best(lambda: build_point_map(ne, NPTS))
        if pmap.npoints != 6 * (ne * (NPTS - 1)) ** 2 + 2:
            failures.append(f"ne={ne}: {pmap.npoints} DSS points")

    if not (mesh.neighbors[:, :4] >= 0).all():
        failures.append(f"ne={ne}: an element lacks 4 edge neighbors")
    degree = np.count_nonzero(mesh.neighbors >= 0, axis=1)
    if np.count_nonzero(degree == 7) != 24 or np.count_nonzero(degree == 8) != k - 24:
        failures.append(f"ne={ne}: degrees {np.bincount(degree).tolist()}, want 24 of 7")
    if graph.nedges != 4 * k - 12:
        failures.append(f"ne={ne}: {graph.nedges} graph edges, want {4 * k - 12}")
    sizes = np.bincount(part.assignment, minlength=NPARTS)
    if sizes.sum() != k or sizes.min() == 0:
        failures.append(f"ne={ne}: partition sizes {sizes.min()}..{sizes.max()}")
    row = {
        "ne": ne,
        "k": k,
        "nparts": NPARTS,
        "npts": NPTS,
        "seconds": {name: round(t, 6) for name, t in times.items()},
        "total_s": round(sum(t for s, t in times.items() if s not in TABLE_STAGES), 6),
        "sfc_request_s": round(request_s, 6),
    }
    return row, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ci", action="store_true", help="Ne=16 row only")
    args = parser.parse_args(argv)

    rows: list[dict] = []
    failures: list[str] = []
    stages = (
        "mesh", "graph", "partition", "evaluate", "table", "evaluate_table", "point_map",
    )
    print(
        f"{'Ne':>5} {'K':>9} " + " ".join(f"{s + ' ms':>13}" for s in stages)
        + f" {'sfc request ms':>15}"
    )
    for ne in CI_NES if args.ci else FULL_NES:
        row, bad = measure(ne)
        rows.append(row)
        failures += bad
        print(
            f"{ne:5d} {row['k']:9,d} "
            + " ".join(
                f"{row['seconds'][s] * 1e3:13.1f}" if s in row["seconds"] else f"{'-':>13}"
                for s in stages
            )
            + f" {row['sfc_request_s'] * 1e3:15.1f}"
        )

    out = RESULTS_PATH.with_stem(f"{RESULTS_PATH.stem}_ci") if args.ci else RESULTS_PATH
    out.parent.mkdir(exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "schema": 1,
                "profile": "ci" if args.ci else "full",
                "repeat": REPEAT,
                "rows": rows,
                "failures": failures,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {out}")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("pipeline-scaling bench ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
