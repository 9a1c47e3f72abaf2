"""Staged-pipeline tests: versioned keys, stage caching, equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition.pipeline import (
    STAGE_VERSIONS,
    cache_version,
    clear_stage_caches,
    evaluate_stage,
    graph_stage,
    mesh_stage,
    partition_stage,
    run_pipeline,
    stage_cache_stats,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_stage_caches()
    yield
    clear_stage_caches()


class TestVersioning:
    def test_all_stages_versioned(self):
        assert set(STAGE_VERSIONS) == {"mesh", "graph", "partition", "evaluate"}

    def test_cache_version_composite(self):
        tag = cache_version()
        for stage, version in STAGE_VERSIONS.items():
            assert f"{stage}{version}" in tag
        assert tag == "mesh1.graph1.partition3.evaluate1"

    def test_version_bump_changes_key(self):
        before = cache_version()
        STAGE_VERSIONS["graph"] += 1
        try:
            assert cache_version() != before
            # A bumped stage must not serve entries cached pre-bump.
            clear_stage_caches()
            graph_stage(2)
            STAGE_VERSIONS["graph"] -= 1
            graph_stage(2)
            assert stage_cache_stats()["graph"]["misses"] == 2
        finally:
            STAGE_VERSIONS["graph"] = 1


class TestStageCaches:
    def test_mesh_reused_across_calls(self):
        a = mesh_stage(2)
        b = mesh_stage(2)
        assert a is b
        stats = stage_cache_stats()["mesh"]
        assert stats == {"hits": 1, "misses": 1, "entries": 1}

    def test_graph_reused_across_methods_at_equal_ne(self):
        """The batch-serving win: one graph serves every METIS method,
        and the methods that do not read it never build it."""
        for method in ("sfc", "rb", "kway", "tv", "block"):
            run_pipeline(method, 2, 4)
        stats = stage_cache_stats()
        assert stats["graph"]["misses"] == 1
        assert stats["graph"]["hits"] == 2
        assert stats["mesh"]["misses"] == 1

    def test_curve_answers_build_no_graph(self):
        for method in ("sfc", "morton", "block"):
            run_pipeline(method, 4, 6)
        assert stage_cache_stats()["graph"] == {"hits": 0, "misses": 0, "entries": 0}

    def test_distinct_ne_distinct_entries(self):
        graph_stage(2)
        graph_stage(4)
        stats = stage_cache_stats()["graph"]
        assert stats == {"hits": 0, "misses": 2, "entries": 2}

    def test_custom_npts_not_conflated_with_default(self):
        g_default = graph_stage(2)
        g_coarse = graph_stage(2, npts=2)
        assert g_default is not g_coarse
        assert stage_cache_stats()["graph"]["misses"] == 2

    def test_clear_resets_counters(self):
        mesh_stage(2)
        clear_stage_caches()
        stats = stage_cache_stats()
        assert {stage: stats[stage] for stage in ("mesh", "graph")} == {
            "mesh": {"hits": 0, "misses": 0, "entries": 0},
            "graph": {"hits": 0, "misses": 0, "entries": 0},
        }

    def test_hits_counted_in_telemetry(self):
        from repro.telemetry import telemetry_session

        with telemetry_session() as session:
            graph_stage(2)
            graph_stage(2)
        outcomes = {
            labels["outcome"]: metric.value
            for name, labels, metric in session.metrics.items()
            if name == "stage_cache_total" and labels["stage"] == "graph"
        }
        assert outcomes == {"hit": 1, "miss": 1}


class TestEquivalence:
    def test_run_pipeline_matches_direct_stages(self):
        result = run_pipeline("sfc", 4, 8)
        part = partition_stage("sfc", 4, 8)
        quality = evaluate_stage(graph_stage(4), part)
        np.testing.assert_array_equal(result.partition.assignment, part.assignment)
        assert result.quality.lb_nelemd == quality.lb_nelemd
        assert result.quality.edgecut == quality.edgecut
        assert result.quality.total_volume_points == quality.total_volume_points
        np.testing.assert_array_equal(result.quality.nelemd, quality.nelemd)

    def test_stage_spans_traced(self):
        from repro.telemetry import telemetry_session

        with telemetry_session() as session:
            run_pipeline("rb", 2, 4)
        names = {s.name for s in session.tracer.spans}
        assert {
            "stage:mesh", "stage:graph", "stage:partition", "stage:evaluate"
        } <= names

    def test_partition_span_labeled_with_partitioner(self):
        from repro.telemetry import telemetry_session

        with telemetry_session() as session:
            partition_stage("kway", 2, 4)
        (span,) = [s for s in session.tracer.spans if s.name == "stage:partition"]
        assert span.args["partitioner"] == "kway"
