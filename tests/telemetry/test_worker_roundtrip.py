"""Spans and metrics recorded inside pool workers reach the parent."""

from __future__ import annotations

from repro.service import PartitionEngine, PartitionRequest
from repro.telemetry import stage_profile, telemetry_session

REQUESTS = [
    PartitionRequest(ne=4, nparts=8, method="sfc"),
    PartitionRequest(ne=4, nparts=8, method="rb"),
    PartitionRequest(ne=4, nparts=12, method="sfc"),
]


def test_pool_spans_ship_back_to_parent():
    with telemetry_session() as session:
        with PartitionEngine(jobs=2) as engine:
            responses = engine.run(REQUESTS)
    assert all(r.source == "computed" for r in responses)
    spans = session.tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    # worker-side spans arrived and are tagged with their worker pid
    computes = by_name["compute"]
    assert len(computes) == len(REQUESTS)
    assert all("worker_pid" in s.args for s in computes)
    # ... and are re-parented under the engine's pool span
    (pool,) = by_name["pool"]
    assert all(s.parent == pool.id for s in computes)
    assert all(s.pid == pool.pid for s in computes)
    # worker pids become track ids (one track per worker)
    assert {s.tid for s in computes} <= {
        s.args["worker_pid"] for s in computes
    }
    # multilevel stages from inside part_graph made the trip too
    assert "coarsen" in by_name and "refine" in by_name
    # workers land temporally inside the pool span (shared epoch clock)
    lo, hi = pool.ts_us, pool.ts_us + pool.dur_us
    assert all(lo <= s.ts_us <= hi for s in computes)


def test_pool_metrics_merge_into_parent_registry():
    with telemetry_session() as session:
        with PartitionEngine(jobs=2) as engine:
            engine.run(REQUESTS)
    reg = session.metrics
    assert reg.counter("worker_payloads_merged").value == len(REQUESTS)
    # quality histograms recorded in the parent (one per response),
    # labeled by registry partitioner name
    lb_series = {
        labels.get("partitioner"): metric
        for name, labels, metric in reg.items()
        if name == "request_lb_nelemd"
    }
    assert set(lb_series) == {"sfc", "rb"}
    assert sum(m.total for m in lb_series.values()) == len(REQUESTS)
    # kernel-selection counters recorded in the workers, merged here
    total = sum(
        metric.value
        for name, _labels, metric in reg.items()
        if name == "part_graph_total"
    )
    assert total >= 1  # rb request always calls part_graph


def test_pool_stages_reach_stage_profile():
    """``--profile --jobs N`` sees worker-side stages."""
    with telemetry_session() as session:
        with PartitionEngine(jobs=2) as engine:
            engine.run(REQUESTS)
    stages = stage_profile(session)["stages"]
    assert stages["compute"]["calls"] == len(REQUESTS)
    assert "coarsen" in stages  # recorded inside a worker process


def test_pool_without_collectors_ships_no_payload():
    with PartitionEngine(jobs=2) as engine:
        responses = engine.run(REQUESTS)
    assert all(r.source == "computed" for r in responses)


def test_parallel_results_match_serial():
    with telemetry_session():
        with PartitionEngine(jobs=2) as engine:
            parallel = engine.run(REQUESTS)
    with PartitionEngine(jobs=1) as engine:
        serial = engine.run(REQUESTS)
    for p, s in zip(parallel, serial):
        assert (p.assignment == s.assignment).all()
        assert p.metrics == s.metrics
