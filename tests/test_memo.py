"""The per-process memo registry (:mod:`repro.memo`).

Every memo of the package registers under its stage name.  One test per
registered memo fills it past its bound through the function it backs,
then checks that :func:`clear_stage_caches` empties it, zeroes its
counters and makes that function build afresh.
"""

from __future__ import annotations

import pytest

from repro import memo
from repro.cubesphere.curve import cubed_sphere_curve
from repro.cubesphere.mesh import cubed_sphere_mesh
from repro.machine.perf import simulator_point_map
from repro.partition import sfc
from repro.partition.pipeline import (
    clear_stage_caches,
    graph_stage,
    mesh_stage,
    stage_cache_stats,
)
from repro.seam.dss import shared_dss_operator
from repro.seam.element import build_geometry
from repro.seam.gll import gll_basis
from repro.sfc.factorization import admissible_sizes, all_schedules
from repro.sfc.generator import generate_curve
from repro.sfc.keys import schedule_tables

_CURVE_KEYS = [
    (ne, schedule, projection)
    for projection in ("equiangular", "equidistant")
    for ne in admissible_sizes(24)
    for schedule in all_schedules(ne)
]

#: Every H/P schedule of 1-7 levels, shortest (smallest curve) first.
_SCHEDULES = [
    "".join("HP"[(i >> bit) & 1] for bit in range(levels))
    for levels in range(1, 8)
    for i in range(2**levels)
]

#: The i-th distinct entry of every memo, built through its function.
BUILD = {
    "mesh": lambda i: cubed_sphere_mesh(i + 1),
    "curve": lambda i: cubed_sphere_curve(*_CURVE_KEYS[i]),
    "graph": lambda i: graph_stage(1, npts=i + 2),
    "positions": lambda i: sfc.curve_key_fn(admissible_sizes(24)[i]).__self__,
    "geometry": lambda i: build_geometry(1, i + 2),
    "dss": lambda i: shared_dss_operator(build_geometry(1, i + 2)),
    "face_curve": lambda i: generate_curve(schedule=_SCHEDULES[i]),
    "key_tables": lambda i: schedule_tables(_SCHEDULES[i]),
    "gll_basis": lambda i: gll_basis(i + 2),
    "point_map": lambda i: simulator_point_map(1, i + 2),
}


@pytest.fixture(autouse=True)
def fresh_memos():
    clear_stage_caches()
    yield
    clear_stage_caches()


def test_every_memo_is_covered():
    assert set(memo.MEMOS) == set(BUILD)


def test_stage_names_are_unique():
    with pytest.raises(ValueError, match="mesh"):
        memo.StageCache("mesh", maxsize=1)


@pytest.mark.parametrize("stage", sorted(BUILD))
def test_bounded_and_cleared(stage):
    cache, build = memo.MEMOS[stage], BUILD[stage]
    first = build(0)
    assert build(0) is first
    for i in range(1, cache.maxsize + 1):
        build(i)
        assert cache.stats()["entries"] <= cache.maxsize
    assert cache.stats() == {
        "hits": 1, "misses": cache.maxsize + 1, "entries": cache.maxsize,
    }
    clear_stage_caches()
    assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}
    assert build(0) is not first
    assert stage_cache_stats()[stage] == {"hits": 0, "misses": 1, "entries": 1}


def test_mesh_stage_is_the_mesh_memo():
    assert mesh_stage(4) is cubed_sphere_mesh(4)
    assert stage_cache_stats()["mesh"] == {"hits": 1, "misses": 1, "entries": 1}
