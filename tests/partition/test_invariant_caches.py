"""Per-process invariant caches: curve positions, center trig, meshes.

The curve and the mesh geometry never change between rebalancing
steps, so each is computed once per process.  These tests pin that the
cached path gives exactly the streamed path's results, that the caches
stay within their bounds, and that :func:`clear_stage_caches` drops
them all.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import sfc
from repro.partition.pipeline import clear_stage_caches, mesh_stage
from repro.partition.repartition import LoadTracker, plan_repartition
from repro.service.engine import compute_response
from repro.service.requests import PartitionRequest
from repro.sfc.factorization import admissible_sizes, all_schedules, default_schedule


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_stage_caches()
    yield
    clear_stage_caches()


def streamed(chunk: int):
    """Context in which every cut keys ``chunk`` elements per pass, so a
    mesh of more elements no longer fits the position cache and is keyed
    afresh in chunks."""
    return mock.patch.object(sfc, "DEFAULT_CHUNK", chunk)


def counted_element_keys():
    """Patch the cut path's ``element_keys`` with a call-counting wrapper."""
    return mock.patch.object(sfc, "element_keys", wraps=sfc.element_keys)


@st.composite
def cut_cases(draw):
    ne = draw(st.sampled_from(admissible_sizes(24)))
    k = 6 * ne * ne
    return {
        "ne": ne,
        "schedule": draw(st.sampled_from([None, *all_schedules(ne)])),
        "nparts": draw(st.integers(1, min(k, 48))),
        "chunk": draw(st.integers(1, max(k - 1, 1))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestCachedMatchesStreamed:
    @settings(max_examples=60, deadline=None)
    @given(cut_cases())
    def test_cuts_and_plans_equal(self, case):
        ne, schedule, nparts = case["ne"], case["schedule"], case["nparts"]
        chunk = case["chunk"]
        k = 6 * ne * ne
        rng = np.random.default_rng(case["seed"])
        weights = np.exp(rng.normal(0.0, 1.0, size=k)) + 1e-3
        old = rng.integers(0, max(nparts - 1, 1), size=k)

        def run():
            tracker = LoadTracker(ne, nparts, schedule=schedule)
            tracker.update(weights)
            return (
                sfc.sfc_partition(ne, nparts, schedule=schedule),
                sfc.sfc_partition(ne, nparts, schedule=schedule, weights=weights),
                tracker.current,
                plan_repartition(
                    old, weights, ne=ne, nparts=nparts, schedule=schedule
                ),
            )

        cached = run()
        assert sfc.POSITIONS_CACHE.stats()["entries"] >= 1
        with streamed(chunk):
            want = run()
        for got, ref in zip(cached[:3], want[:3]):
            np.testing.assert_array_equal(got.assignment, ref.assignment)
            assert got.method == ref.method
        plan, ref = cached[3], want[3]
        np.testing.assert_array_equal(plan.new_assignment, ref.new_assignment)
        assert list(plan.moves) == list(ref.moves)
        for rank, gids in plan.moves.items():
            assert gids.dtype == ref.moves[rank].dtype
            np.testing.assert_array_equal(gids, ref.moves[rank])
        assert plan.to_dict() == ref.to_dict()


class TestPositionCache:
    def test_keys_once_across_a_trajectory(self):
        """A 10-step served trajectory keys the curve exactly once."""
        ne, nparts = 8, 12
        with counted_element_keys() as keys:
            old = sfc.sfc_partition(ne, nparts).assignment
            for step in range(10):
                request = PartitionRequest.from_dict({
                    "ne": ne, "nparts": nparts, "old_assignment": old,
                    "weights": {"scenario": "storm", "step": step},
                })
                old = compute_response(request).plan.new_assignment
        assert keys.call_count == 1
        assert sfc.POSITIONS_CACHE.stats() == {
            "hits": 10, "misses": 1, "entries": 1,
        }

    def test_default_schedule_shares_one_entry(self):
        ne = 6
        implicit = sfc.curve_key_fn(ne).__self__
        explicit = sfc.curve_key_fn(ne, default_schedule(ne)).__self__
        assert explicit is implicit
        assert sfc.POSITIONS_CACHE.stats() == {
            "hits": 1, "misses": 1, "entries": 1,
        }

    def test_cached_positions_are_read_only(self):
        positions = sfc.curve_key_fn(4).__self__
        assert not positions.flags.writeable
        assert positions.dtype == np.uint64 and len(positions) == 96

    def test_nothing_cached_past_one_chunk(self):
        """Above ``DEFAULT_CHUNK`` elements the cut path streams: every
        call re-keys per chunk and nothing is kept."""
        ne = 4
        k = 6 * ne * ne
        with mock.patch.object(sfc, "DEFAULT_CHUNK", k - 1), \
                counted_element_keys() as keys:
            a = sfc.sfc_partition(ne, 8)
            b = sfc.sfc_partition(ne, 8, weights=np.linspace(1.0, 2.0, k))
            assert keys.call_count == 4  # two chunks per cut
            assert max(len(c.kwargs["gids"]) for c in keys.call_args_list) == k - 1
        assert sfc.POSITIONS_CACHE.stats()["entries"] == 0
        np.testing.assert_array_equal(a.assignment, sfc.sfc_partition(ne, 8).assignment)
        assert b.nparts == 8

    def test_cached_at_exactly_one_chunk(self):
        ne = 4
        with mock.patch.object(sfc, "DEFAULT_CHUNK", 6 * ne * ne):
            sfc.sfc_partition(ne, 8)
        assert sfc.POSITIONS_CACHE.stats()["entries"] == 1

    def test_bounded_lru(self):
        for ne in admissible_sizes(12):
            sfc.sfc_partition(ne, 1)
        stats = sfc.POSITIONS_CACHE.stats()
        assert stats["entries"] == sfc.POSITIONS_CACHE.maxsize
        assert stats["misses"] == len(admissible_sizes(12))


class TestClearStageCaches:
    def test_drops_meshes_positions_and_trig(self):
        ne = 6
        mesh = mesh_stage(ne)
        mesh.centers_lonlat
        mesh.center_lat_trig
        sfc.sfc_partition(ne, 4)
        assert sfc.POSITIONS_CACHE.stats()["entries"] == 1
        clear_stage_caches()
        fresh = mesh_stage(ne)
        assert fresh is not mesh
        assert fresh._centers_lonlat is None
        assert fresh._center_lat_trig is None
        assert sfc.POSITIONS_CACHE.stats() == {
            "hits": 0, "misses": 0, "entries": 0,
        }

    def test_mesh_geometry_cached_read_only(self):
        mesh = mesh_stage(4)
        lon, lat = mesh.centers_lonlat
        assert mesh.centers_lonlat[0] is lon
        sin_lat, cos_lat = mesh.center_lat_trig
        assert mesh.center_lat_trig[1] is cos_lat
        for arr in (lon, lat, sin_lat, cos_lat):
            assert not arr.flags.writeable
        np.testing.assert_array_equal(sin_lat, np.sin(lat))
        np.testing.assert_array_equal(cos_lat, np.cos(lat))
