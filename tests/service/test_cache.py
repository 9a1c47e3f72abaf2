"""Unit tests for the content-addressed partition cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.service import (
    PartitionCache,
    PartitionEngine,
    PartitionRequest,
    compute_response,
)
from repro.service.cache import scan_cache_dir


def plan_request(step: int = 3) -> PartitionRequest:
    return PartitionRequest(
        ne=2,
        old_assignment=np.arange(24) % 4,
        weights={"scenario": "storm", "step": step},
    )


#: One request of each kind the cache stores.
KINDS = {
    "partition": lambda: PartitionRequest(ne=2, nparts=4),
    "plan": plan_request,
}


@pytest.fixture()
def req():
    return PartitionRequest(ne=2, nparts=4)


@pytest.fixture()
def resp(req):
    return compute_response(req)


class TestMemoryTier:
    def test_miss_then_hit(self, req, resp):
        cache = PartitionCache()
        assert cache.get(req) is None
        cache.put(req, resp)
        hit = cache.get(req)
        assert hit is not None
        assert hit.source == "memory"
        assert np.array_equal(hit.assignment, resp.assignment)
        assert cache.stats() == {
            "memory_hits": 1,
            "disk_hits": 0,
            "misses": 1,
            "stale": 0,
            "stores": 1,
            "hit_rate": 0.5,
            "memory_entries": 1,
            "encoded_bytes": 0,
        }

    def test_contains(self, req, resp):
        cache = PartitionCache()
        assert req not in cache
        cache.put(req, resp)
        assert req in cache

    def test_lru_eviction(self):
        cache = PartitionCache(capacity=2)
        reqs = [PartitionRequest(ne=2, nparts=n) for n in (2, 3, 4)]
        for r in reqs:
            cache.put(r, compute_response(r))
        assert len(cache) == 2
        assert cache.get(reqs[0]) is None  # oldest evicted
        assert cache.get(reqs[2]) is not None

    def test_lru_touch_on_get(self):
        cache = PartitionCache(capacity=2)
        a, b, c = (PartitionRequest(ne=2, nparts=n) for n in (2, 3, 4))
        cache.put(a, compute_response(a))
        cache.put(b, compute_response(b))
        cache.get(a)  # refresh a; b becomes LRU
        cache.put(c, compute_response(c))
        assert cache.get(a) is not None
        assert cache.get(b) is None

    def test_one_capacity_bound_evicts_across_kinds(self):
        cache = PartitionCache(capacity=2)
        part, plan, later = KINDS["partition"](), plan_request(), plan_request(7)
        for r in (part, plan, later):
            cache.put(r, compute_response(r))
        assert len(cache) == 2
        assert cache.get(part) is None  # the oldest entry, a partition
        assert cache.get(plan).source == "memory"
        cache.put(part, compute_response(part))  # now ``later`` is oldest
        assert cache.get(later) is None
        assert cache.stats()["memory_entries"] == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            PartitionCache(capacity=0)


class TestDiskTier:
    def test_survives_process_memory(self, tmp_path, req, resp):
        PartitionCache(cache_dir=tmp_path).put(req, resp)
        fresh = PartitionCache(cache_dir=tmp_path)  # empty memory tier
        hit = fresh.get(req)
        assert hit is not None
        assert hit.source == "disk"
        assert np.array_equal(hit.assignment, resp.assignment)
        assert hit.metrics == resp.metrics

    def test_disk_hit_promoted_to_memory(self, tmp_path, req, resp):
        PartitionCache(cache_dir=tmp_path).put(req, resp)
        fresh = PartitionCache(cache_dir=tmp_path)
        assert fresh.get(req).source == "disk"
        assert fresh.get(req).source == "memory"

    def test_clear_memory_keeps_disk(self, tmp_path, req, resp):
        cache = PartitionCache(cache_dir=tmp_path)
        cache.put(req, resp)
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get(req).source == "disk"

    def test_corrupt_entry_is_a_miss(self, tmp_path, req, resp):
        cache = PartitionCache(cache_dir=tmp_path)
        cache.put(req, resp)
        path = cache._path(req.cache_key())
        path.write_bytes(b"not an npz")
        cache.clear_memory()
        assert cache.get(req) is None

    @pytest.mark.parametrize(
        "kind,keep",
        [
            pytest.param("partition", 0.5, id="0.5"),
            pytest.param("partition", 0.9, id="0.9"),
            pytest.param("plan", 0.5, id="plan-0.5"),
            pytest.param("plan", 0.9, id="plan-0.9"),
        ],
    )
    def test_truncated_entry_is_recomputed_and_rewritten(self, tmp_path, kind, keep):
        """A cut-off write (zip directory lost) is a miss, not a poisoned key."""
        req = KINDS[kind]()
        engine = PartitionEngine(PartitionCache(cache_dir=tmp_path))
        (first,) = engine.run([req])
        path = engine.cache._path(req.cache_key())
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep)])
        assert scan_cache_dir(tmp_path)["unreadable"] == 1

        fresh = PartitionEngine(PartitionCache(cache_dir=tmp_path))
        (again,) = fresh.run([req])
        assert again.source == "computed"
        assert np.array_equal(again.stored()[0], first.stored()[0])
        assert scan_cache_dir(tmp_path)["current"] == 1
        reread = PartitionCache(cache_dir=tmp_path).get(req)
        assert reread is not None and reread.source == "disk"

    def test_plan_stored_without_its_moves(self, tmp_path):
        """A plan entry is the partition layout: its new assignment plus
        JSON metadata; the moves are regrouped from the request."""
        plan = plan_request()
        computed = compute_response(plan)
        PartitionCache(cache_dir=tmp_path).put(plan, computed)
        path = PartitionCache(cache_dir=tmp_path)._path(plan.cache_key())
        with np.load(path) as data:
            assert sorted(data.files) == ["assignment", "meta"]
            meta = json.loads(bytes(data["meta"]).decode())
        assert sorted(meta) == ["cache_version", "elapsed_s", "plan", "request"]
        hit = PartitionCache(cache_dir=tmp_path).get(plan)
        assert hit.source == "disk"
        assert json.dumps(hit.to_dict()["plan"]) == json.dumps(
            computed.to_dict()["plan"]
        )

    def test_partition_form_under_a_plan_key_is_a_miss(self, tmp_path):
        """A plan key holding a partition response's metadata (what an
        engine that computed plans as partitions wrote) is recomputed."""
        plan = plan_request()
        engine = PartitionEngine(PartitionCache(cache_dir=tmp_path))
        engine.run([plan])
        metrics = compute_response(PartitionRequest(ne=2, nparts=4)).metrics
        _rewrite_meta(
            engine.cache._path(plan.cache_key()),
            lambda m: {
                "cache_version": m["cache_version"],
                "request": m["request"],
                "metrics": metrics,
                "elapsed_s": 0.0,
            },
        )
        fresh = PartitionEngine(PartitionCache(cache_dir=tmp_path))
        assert fresh.serve(plan).source == "computed"
        again = PartitionEngine(PartitionCache(cache_dir=tmp_path)).serve(plan)
        assert again.source == "disk"

    def test_mismatched_entry_is_a_miss(self, tmp_path, req, resp):
        """An entry whose stored request differs is never served."""
        cache = PartitionCache(cache_dir=tmp_path)
        cache.put(req, resp)
        other = PartitionRequest(ne=2, nparts=6)
        # Simulate a (cosmically unlikely) hash collision by renaming.
        cache._path(req.cache_key()).rename(cache._path(other.cache_key()))
        cache.clear_memory()
        assert cache.get(other) is None

    def test_no_dir_until_first_store(self, tmp_path, req, resp):
        target = tmp_path / "sub" / "cache"
        cache = PartitionCache(cache_dir=target)
        assert cache.get(req) is None  # lookup must not create dirs
        assert not target.exists()
        cache.put(req, resp)
        assert target.is_dir()


def _rewrite_meta(path, mutate):
    """Rewrite one NPZ entry's metadata through ``mutate(meta) -> meta``."""
    with np.load(path) as data:
        assignment = data["assignment"]
        meta = json.loads(bytes(data["meta"]).decode())
    meta = mutate(meta)
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            assignment=assignment,
            meta=np.frombuffer(
                json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
            ),
        )


class TestStageVersioning:
    """Entries from a different pipeline version are recomputed."""

    def _age_entry(self, cache, req, mutate):
        _rewrite_meta(cache._path(req.cache_key()), mutate)
        cache.clear_memory()

    def test_pre_refactor_entry_is_stale(self, tmp_path, req, resp):
        """An entry written before the tag existed is never served."""
        cache = PartitionCache(cache_dir=tmp_path)
        cache.put(req, resp)

        def strip_version(meta):
            del meta["cache_version"]
            return meta

        self._age_entry(cache, req, strip_version)
        assert cache.get(req) is None
        assert cache.stats()["stale"] == 1

    def test_version_mismatch_is_stale(self, tmp_path, req, resp):
        cache = PartitionCache(cache_dir=tmp_path)
        cache.put(req, resp)
        self._age_entry(
            cache, req, lambda m: {**m, "cache_version": "mesh0.graph0"}
        )
        assert cache.get(req) is None
        assert cache.stats()["stale"] == 1

    def test_stale_entry_recomputed_and_overwritten(self, tmp_path, req):
        """The engine path: stale → recompute → store → fresh hit."""
        from repro.service import PartitionEngine

        with PartitionEngine(cache=PartitionCache(cache_dir=tmp_path)) as engine:
            first = engine.serve(req)
            assert first.source == "computed"
        _rewrite_meta(
            PartitionCache(cache_dir=tmp_path)._path(req.cache_key()),
            lambda m: {**m, "cache_version": "old"},
        )
        with PartitionEngine(cache=PartitionCache(cache_dir=tmp_path)) as engine:
            second = engine.serve(req)
            assert second.source == "computed"  # not served stale
            assert engine.cache.stats()["stale"] == 1
        # The recompute overwrote the entry with the current tag ...
        with PartitionEngine(cache=PartitionCache(cache_dir=tmp_path)) as engine:
            third = engine.serve(req)
            assert third.source == "disk"  # ... so now it serves
        np.testing.assert_array_equal(first.assignment, third.assignment)

    def test_current_entry_still_served(self, tmp_path, req, resp):
        cache = PartitionCache(cache_dir=tmp_path)
        cache.put(req, resp)
        cache.clear_memory()
        hit = cache.get(req)
        assert hit is not None and hit.source == "disk"
        assert cache.stats()["stale"] == 0


class TestScanCacheDir:
    def test_missing_dir(self, tmp_path):
        info = scan_cache_dir(tmp_path / "nope")
        assert info["entries"] == 0
        assert "mesh" in info["cache_version"]

    def test_counts_by_freshness(self, tmp_path, req, resp):
        """One current and one stale entry of each kind, plus junk."""
        cache = PartitionCache(cache_dir=tmp_path)
        cache.put(req, resp)
        plan = plan_request()
        cache.put(plan, compute_response(plan))
        for other in (PartitionRequest(ne=2, nparts=6), plan_request(9)):
            cache.put(other, compute_response(other))
            _rewrite_meta(
                cache._path(other.cache_key()),
                lambda m: {**m, "cache_version": "old"},
            )
        (tmp_path / "junk.npz").write_bytes(b"not an npz")
        info = scan_cache_dir(tmp_path)
        assert info["entries"] == 5
        assert info["current"] == 2
        assert info["stale"] == 2
        assert info["unreadable"] == 1
        assert info["bytes"] > 0
