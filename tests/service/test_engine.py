"""Engine tests: batching, dedup, parallelism, cache integration.

Includes the subsystem's acceptance check: a 20-request sweep batch is
bit-identical to serial in-process partitioning, and a second run
against a warm disk cache answers (almost) everything from cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition.pipeline import partition_stage
from repro.partition.repartition import plan_repartition
from repro.partition.sfc import sfc_partition
from repro.scenarios import scenario_weights
from repro.service import (
    PartitionCache,
    PartitionEngine,
    PartitionRequest,
    PartitionResponse,
    RepartitionResponse,
)


def sweep_requests(ne: int = 4) -> list[PartitionRequest]:
    """A 20-point (method x nparts) sweep, the acceptance workload."""
    return [
        PartitionRequest(ne=ne, nparts=nparts, method=method)
        for method in ("sfc", "rb", "kway", "tv")
        for nparts in (4, 8, 12, 24, 48)
    ]


class TestEngineBasics:
    def test_serve_single(self):
        resp = PartitionEngine().serve(PartitionRequest(ne=2, nparts=4))
        assert resp.source == "computed"
        assert resp.to_partition().nparts == 4

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            PartitionEngine(jobs=0)

    def test_empty_batch(self):
        assert PartitionEngine().run([]) == []

    def test_responses_align_with_requests(self):
        reqs = [PartitionRequest(ne=2, nparts=n) for n in (6, 2, 4)]
        responses = PartitionEngine().run(reqs)
        assert [r.request.nparts for r in responses] == [6, 2, 4]

    def test_batch_deduplicates(self):
        engine = PartitionEngine()
        req = PartitionRequest(ne=2, nparts=4)
        responses = engine.run([req, req, req])
        assert len(responses) == 3
        assert engine.cache.stores == 1  # computed once
        assert [r.source for r in responses] == ["computed", "dedup", "dedup"]
        assert engine.stats.count("computed") == 1  # no double-counted time
        assert all(
            np.array_equal(r.assignment, responses[0].assignment)
            for r in responses
        )

    def test_second_batch_hits_memory(self):
        engine = PartitionEngine()
        req = PartitionRequest(ne=2, nparts=4)
        engine.run([req])
        (resp,) = engine.run([req])
        assert resp.source == "memory"
        assert engine.stats.hit_rate == 0.5  # 1 of 2 served from cache


def storm_request(step: int = 3) -> PartitionRequest:
    return PartitionRequest(
        ne=4,
        old_assignment=sfc_partition(4, 12).assignment,
        weights={"scenario": "storm", "step": step},
        nparts=12,
    )


class TestRebalanceRequests:
    """Plans are served by the same engine, cache and pool as partitions."""

    def test_serve_returns_the_plan_and_persists_it(self, tmp_path):
        req = storm_request()
        direct = plan_repartition(
            req.old_assignment, scenario_weights("storm", 4, 3), ne=4, nparts=12
        )
        with PartitionEngine(PartitionCache(cache_dir=tmp_path)) as engine:
            served = engine.serve(req)
        assert isinstance(served, RepartitionResponse)
        assert served.source == "computed"
        assert served.plan.to_dict(include_assignment=True) == direct.to_dict(
            include_assignment=True
        )
        # A second engine on the same directory: the plan comes back
        # from disk, its moves regrouped from the old assignment.
        with PartitionEngine(PartitionCache(cache_dir=tmp_path)) as engine:
            again = engine.serve(req)
        assert isinstance(again, RepartitionResponse)
        assert again.source == "disk"
        np.testing.assert_array_equal(again.plan.new_assignment, direct.new_assignment)
        assert list(again.plan.moves) == list(direct.moves)
        for rank, gids in direct.moves.items():
            assert again.plan.moves[rank].dtype == gids.dtype
            np.testing.assert_array_equal(again.plan.moves[rank], gids)
        assert again.plan.scalars() == direct.scalars()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_batch(self, jobs):
        part, plan = PartitionRequest(ne=4, nparts=12), storm_request()
        with PartitionEngine(jobs=jobs) as engine:
            responses = engine.run([part, plan, plan])
        assert [type(r) for r in responses] == [
            PartitionResponse, RepartitionResponse, RepartitionResponse,
        ]
        assert [r.source for r in responses] == ["computed", "computed", "dedup"]
        assert responses[1].request is plan
        assert engine.cache.stores == 2


class TestAcceptance:
    """ISSUE acceptance criteria for the serving subsystem."""

    def test_batch_bit_identical_to_serial(self):
        """Parallel batched serving == serial `repro partition` calls."""
        reqs = sweep_requests()
        assert len(reqs) == 20
        engine = PartitionEngine(jobs=2)
        responses = engine.run(reqs)
        for req, resp in zip(reqs, responses):
            serial = partition_stage(req.method, req.ne, req.nparts, seed=req.seed)
            assert np.array_equal(resp.assignment, serial.assignment), req

    def test_warm_disk_cache_hit_rate(self, tmp_path):
        reqs = sweep_requests()
        cold = PartitionEngine(PartitionCache(cache_dir=tmp_path), jobs=2)
        cold_responses = cold.run(reqs)
        assert cold.stats.hit_rate == 0.0
        # Fresh engine + fresh memory tier: only the disk store is warm.
        warm = PartitionEngine(PartitionCache(cache_dir=tmp_path))
        warm_responses = warm.run(reqs)
        assert warm.stats.hit_rate >= 0.95
        assert warm.stats.count("computed") == 0
        for a, b in zip(cold_responses, warm_responses):
            assert np.array_equal(a.assignment, b.assignment)
            assert a.metrics == b.metrics


class TestParallelExecution:
    def test_parallel_matches_inline(self):
        reqs = [
            PartitionRequest(ne=2, nparts=nparts, method=method)
            for method in ("sfc", "rb")
            for nparts in (2, 4, 6, 12)
        ]
        inline = PartitionEngine(jobs=1).run(reqs)
        parallel = PartitionEngine(jobs=2).run(reqs)
        for a, b in zip(inline, parallel):
            assert np.array_equal(a.assignment, b.assignment)
            assert a.metrics == b.metrics

    def test_pool_result_leaves_the_request_behind(self):
        from repro.service.engine import _pool_compute

        req = PartitionRequest(ne=2, nparts=4)
        response, payload = _pool_compute((req, False, None))
        assert response.request is None and payload is None
        with PartitionEngine(jobs=2) as engine:
            reqs = [PartitionRequest(ne=2, nparts=n) for n in (2, 3)]
            for r, resp in zip(reqs, engine.run(reqs)):
                assert resp.request is r

    def test_stats_track_workers(self):
        engine = PartitionEngine(jobs=2)
        engine.run([PartitionRequest(ne=2, nparts=n) for n in (2, 3, 4, 6)])
        stats = engine.stats
        assert stats.jobs == 2
        assert stats.count("computed") == 4
        assert stats.wall_s > 0
        assert stats.compute_s > 0
        assert 0 < stats.worker_utilization <= 1
        assert stats.throughput > 0


class TestLifecycle:
    def test_close_is_idempotent(self):
        engine = PartitionEngine()
        engine.run([PartitionRequest(ne=2, nparts=4)])
        assert not engine.closed
        engine.close()
        engine.close()
        assert engine.closed

    def test_run_after_close_is_a_clear_error(self):
        engine = PartitionEngine()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.run([PartitionRequest(ne=2, nparts=4)])

    def test_submit_after_close_is_a_clear_error(self):
        engine = PartitionEngine()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(PartitionRequest(ne=2, nparts=4))

    def test_context_manager_closes(self):
        with PartitionEngine() as engine:
            engine.run([PartitionRequest(ne=2, nparts=4)])
        assert engine.closed

    def test_context_manager_closes_pool(self):
        reqs = [
            PartitionRequest(ne=2, nparts=4),
            PartitionRequest(ne=2, nparts=6),
        ]
        with PartitionEngine(jobs=2) as engine:
            responses = engine.run(reqs)
            assert engine._pool is not None
            # A second run reuses the same pool.
            pool = engine._pool
            engine.run(reqs)
            assert engine._pool is pool
        assert engine._pool is None
        assert len(responses) == 2

    def test_submit_is_process_backed_even_at_jobs_1(self):
        import os

        from repro.telemetry import telemetry_session

        req = PartitionRequest(ne=2, nparts=4)
        with PartitionEngine(jobs=1) as engine, telemetry_session():
            _, payload = engine.submit(req).result()
            pool = engine._pool
            engine.submit(req).result()
            assert engine._pool is pool  # one pool, reused
        worker_pids = {s["pid"] for s in payload["spans"]}
        assert worker_pids and os.getpid() not in worker_pids

    def test_warm_forks_all_workers_up_front(self):
        with PartitionEngine(jobs=2) as engine:
            assert engine.warm() == 2

    def test_concurrent_first_submits_share_one_pool(self, monkeypatch):
        import threading
        from concurrent.futures import ProcessPoolExecutor

        from repro.service import engine as engine_module

        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", CountingPool)
        engine = PartitionEngine(jobs=2)
        futures = []
        barrier = threading.Barrier(4)

        def grab(nparts):
            barrier.wait()
            futures.append(engine.submit(PartitionRequest(ne=2, nparts=nparts)))

        threads = [
            threading.Thread(target=grab, args=(n,)) for n in (2, 3, 4, 6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(pools) == 1
        assert all(f.result()[0].request is None for f in futures)
        engine.close()
