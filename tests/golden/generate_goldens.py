"""Generate the golden reference outputs for the kernelization PR.

Run from the repo root with the *pre-kernelization* implementations::

    PYTHONPATH=src python tests/golden/generate_goldens.py

The committed ``metis_golden.npz`` / ``halo_golden.json`` files were
produced by the pure-Python loops that predate the NumPy kernels; the
golden tests in ``tests/metis/test_golden.py`` and
``tests/seam/test_golden.py`` assert that the kernelized code
reproduces them bit-for-bit.  Regenerating with post-kernel code makes
the tests tautological — only do that if the algorithms are changed
*deliberately* (and say so in the commit).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.cubesphere import cubed_sphere_mesh
from repro.graphs import graph_from_edges, mesh_graph
from repro.metis import part_graph
from repro.metis.matching import heavy_edge_matching, random_matching
from repro.metis.refine import fm_refine_bisection, greedy_kway_refine
from repro.partition import sfc_partition
from repro.partition.metrics import evaluate_partition
from repro.seam import build_geometry, build_point_map
from repro.seam.dss import build_halo_schedule

HERE = Path(__file__).parent


def random_weighted_graph(n: int = 60, seed: int = 42):
    """Deterministic random connected weighted graph (shared with tests)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = {
        (min(int(a), int(b)), max(int(a), int(b))) for a, b in zip(perm, perm[1:])
    }
    for _ in range(3 * n):
        a, b = rng.integers(n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    earr = np.array(sorted(edges), dtype=np.int64)
    ew = rng.integers(1, 10, size=len(earr)).astype(np.int64)
    vw = rng.integers(1, 5, size=n).astype(np.int64)
    return graph_from_edges(n, earr, ew, vw)


def main() -> None:
    arrays: dict[str, np.ndarray] = {}
    scalars: dict[str, int] = {}

    mesh4 = mesh_graph(cubed_sphere_mesh(4))  # K = 96
    mesh6 = mesh_graph(cubed_sphere_mesh(6))  # K = 216
    rand = random_weighted_graph()

    # -- full METIS pipelines -------------------------------------------
    for name, graph in (("mesh4", mesh4), ("mesh6", mesh6), ("rand", rand)):
        for method in ("rb", "kway", "tv"):
            for nparts, seed in ((7, 0), (16, 3)):
                if nparts > graph.nvertices:
                    continue
                p = part_graph(graph, nparts, method, seed=seed)
                key = f"part_{name}_{method}_{nparts}_{seed}"
                arrays[key] = p.assignment
                q = evaluate_partition(graph, p)
                scalars[f"{key}_edgecut"] = int(q.edgecut)
                scalars[f"{key}_tcv"] = int(q.total_volume_points)

    # -- matchings ------------------------------------------------------
    for name, graph in (("mesh6", mesh6), ("rand", rand)):
        for seed in (0, 1, 2):
            arrays[f"rm_{name}_{seed}"] = random_matching(graph, seed=seed)
            arrays[f"hem_{name}_{seed}"] = heavy_edge_matching(graph, seed=seed)

    # -- FM bisection refinement ----------------------------------------
    for name, graph in (("mesh4", mesh4), ("rand", rand)):
        n = graph.nvertices
        side0 = (np.arange(n) % 2).astype(np.int64)  # alternating start
        half = int(graph.vweights.sum()) // 2
        cap = half + int(graph.vweights.max())
        arrays[f"fm_{name}"] = fm_refine_bisection(graph, side0, cap, cap)
        side1 = (np.arange(n) >= n // 2).astype(np.int64)  # block start
        arrays[f"fm_block_{name}"] = fm_refine_bisection(graph, side1, cap, cap)

    # -- greedy K-way refinement (cut and volume objectives) ------------
    for name, graph in (("mesh4", mesh4), ("rand", rand)):
        n = graph.nvertices
        nparts = 9
        a0 = (np.arange(n) * nparts // n).astype(np.int64)
        for objective in ("cut", "volume"):
            arrays[f"kref_{objective}_{name}"] = greedy_kway_refine(
                graph, a0, nparts, objective=objective, seed=5
            )

    np.savez_compressed(HERE / "metis_golden.npz", **arrays)
    (HERE / "metis_golden_scalars.json").write_text(
        json.dumps(scalars, indent=0, sort_keys=True) + "\n"
    )

    # -- halo / exchange schedules --------------------------------------
    geom = build_geometry(4, 4)  # ne=4, np=4 GLL points
    pmap = build_point_map(4, 4)
    schedules = {}
    parts = {
        "sfc7": sfc_partition(4, 7),
        "kway13": part_graph(mesh4, 13, "kway", seed=0),
        "rb5": part_graph(mesh4, 5, "rb", seed=1),
    }
    for label, p in parts.items():
        sched = build_halo_schedule(pmap, p)
        schedules[label] = {f"{a},{b}": int(c) for (a, b), c in sorted(sched.items())}
    (HERE / "halo_golden.json").write_text(
        json.dumps(schedules, indent=0, sort_keys=True) + "\n"
    )

    print(f"wrote {len(arrays)} arrays, {len(scalars)} scalars, "
          f"{len(schedules)} schedules")


if __name__ == "__main__":
    main()
