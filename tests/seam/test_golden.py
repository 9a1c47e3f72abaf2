"""Golden tests for the vectorized halo-schedule construction.

``tests/golden/halo_golden.json`` holds exchange schedules produced by
the pre-kernelization quadratic Python scan; the vectorized
``build_halo_schedule`` must reproduce every (src, dst) -> count entry
exactly, for an SFC partition and for both METIS families.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cubesphere import cubed_sphere_mesh
from repro.graphs import mesh_graph
from repro.metis import part_graph
from repro.partition import sfc_partition
from repro.seam import build_point_map
from repro.seam.dss import build_halo_schedule

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden" / "halo_golden.json").read_text()
)


@pytest.fixture(scope="module")
def point_map():
    return build_point_map(4, 4)


def _partition(label):
    if label == "sfc7":
        return sfc_partition(4, 7)
    mesh4 = mesh_graph(cubed_sphere_mesh(4))
    if label == "kway13":
        return part_graph(mesh4, 13, "kway", seed=0)
    return part_graph(mesh4, 5, "rb", seed=1)


@pytest.mark.parametrize("label", ["sfc7", "kway13", "rb5"])
def test_halo_schedule_matches_golden(point_map, label):
    sched = build_halo_schedule(point_map, _partition(label))
    got = {f"{a},{b}": int(c) for (a, b), c in sched.items()}
    assert got == GOLDEN[label]
