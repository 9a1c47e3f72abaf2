"""Metrics registry: counters, gauges, histograms, snapshots, exposition."""

from __future__ import annotations

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import (
    BUCKETS_BY_METRIC,
    DEFAULT_BUCKETS,
    Histogram,
)


class TestCounter:
    def test_increments(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(3)
        assert reg.counter("hits").value == 4

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("req", method="rb").inc()
        reg.counter("req", method="sfc").inc(2)
        assert reg.counter("req", method="rb").value == 1
        assert reg.counter("req", method="sfc").value == 2

    def test_negative_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("hits").inc(-1)

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")


class TestSeriesLookup:
    """Hot calls resolve a series by its labels as passed; identity (and
    so every output) stays the sorted, ``str()``-ed labels."""

    def test_permuted_labels_hit_one_series(self):
        reg = MetricsRegistry()
        a = reg.counter("req", status="200", partitioner="sfc")
        b = reg.counter("req", partitioner="sfc", status="200")
        a.inc()
        b.inc(2)
        assert a is b and len(reg) == 1 and a.value == 3
        h = reg.histogram("lat", partitioner="rb", source="memory")
        assert reg.histogram("lat", source="memory", partitioner="rb") is h

    def test_items_and_exposition_unchanged(self):
        reg = MetricsRegistry()
        for labels in ({"b": "2", "a": "1"}, {"a": "1", "b": "2"}):
            reg.counter("req", **labels).inc()
            reg.histogram("lat", buckets=(1.0,), **labels).observe(0.5)
        assert [(name, labels, m.kind) for name, labels, m in reg.items()] == [
            ("lat", {"a": "1", "b": "2"}, "histogram"),
            ("req", {"a": "1", "b": "2"}, "counter"),
        ]
        assert reg.to_prometheus() == (
            "# HELP lat repro histogram.\n"
            "# TYPE lat histogram\n"
            'lat_bucket{a="1",b="2",le="1"} 2\n'
            'lat_bucket{a="1",b="2",le="+Inf"} 2\n'
            'lat_sum{a="1",b="2"} 1\n'
            'lat_count{a="1",b="2"} 2\n'
            "# HELP req repro counter.\n"
            "# TYPE req counter\n"
            'req{a="1",b="2"} 2\n'
        )

    def test_non_string_labels_keep_their_str_identity(self):
        """``1 == True`` must not merge series whose labels ``str()`` apart."""
        reg = MetricsRegistry()
        one = reg.counter("n", v=1)
        assert reg.counter("n", v=True) is not one
        assert reg.counter("n", v="1") is one
        assert reg.counter("n", v=1) is one
        assert len(reg) == 2


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(7)
        reg.gauge("depth").set(0)
        assert reg.gauge("depth").value == 0


class TestHistogram:
    def test_bucketing_is_inclusive_upper(self):
        h = Histogram((1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 4.0, 99.0):
            h.observe(v)
        # (<=1, <=2, <=4, +Inf)
        assert h.counts == [2, 1, 1, 1]
        assert h.total == 5
        assert h.min == 0.5 and h.max == 99.0

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_default_buckets_valid(self):
        for bounds in (DEFAULT_BUCKETS, *BUCKETS_BY_METRIC.values()):
            Histogram(bounds)  # must not raise

    def test_quality_metric_names_have_buckets(self):
        for name in (
            "request_lb_nelemd",
            "request_lb_spcv",
            "request_edgecut",
            "request_tcv_points",
        ):
            assert name in BUCKETS_BY_METRIC

    def test_mean_empty(self):
        assert Histogram((1.0,)).mean == 0.0


class TestSnapshotMerge:
    def test_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("hits", source="memory").inc(5)
        reg.gauge("depth").set(3)
        reg.histogram("lat").observe(0.002)
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert clone.snapshot() == reg.snapshot()

    def test_merge_accumulates(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits").inc(2)
        a.histogram("lat").observe(0.01)
        b.counter("hits").inc(3)
        b.histogram("lat").observe(0.02)
        a.merge(b.snapshot())
        assert a.counter("hits").value == 5
        assert a.histogram("lat").total == 2

    def test_merge_boundary_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        b.histogram("lat", buckets=(5.0, 9.0)).observe(6.0)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_merge_tolerates_unknown_kind(self):
        reg = MetricsRegistry()
        reg.merge([{"name": "future", "kind": "summary", "value": 1}])
        assert len(reg) == 0


class TestRendering:
    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("hits", source="memory").inc(2)
        reg.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        text = reg.to_prometheus()
        assert '# TYPE hits counter' in text
        assert 'hits{source="memory"} 2' in text
        assert 'lat_bucket{le="1"} 0' in text
        assert 'lat_bucket{le="2"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 1.5" in text
        assert "lat_count 1" in text

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render()

    def test_render_tables(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.histogram("request_lb_nelemd").observe(0.01)
        text = reg.render()
        assert "hits" in text
        assert "request_lb_nelemd" in text


class TestPrometheusExposition:
    def test_help_lines_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("cache_hits").inc()
        reg.counter("server_requests_total", status="200").inc()
        reg.counter("server_requests_total", status="503").inc()
        reg.counter("stage_cache_total", stage="mesh", outcome="hit").inc()
        text = reg.to_prometheus()
        assert (
            "# HELP cache_hits Requests answered from the partition cache."
            in text
        )
        assert (
            "# HELP stage_cache_total Per-process memo lookups, by stage "
            "and outcome." in text
        )
        assert text.count("# HELP server_requests_total") == 1
        assert text.count("# TYPE server_requests_total") == 1

    def test_help_precedes_type_per_family(self):
        reg = MetricsRegistry()
        reg.counter("cache_hits").inc()
        reg.histogram("server_request_seconds").observe(0.01)
        lines = reg.to_prometheus().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# TYPE "):
                family = line.split()[2]
                assert lines[i - 1].startswith(f"# HELP {family} ")

    def test_unknown_metric_gets_generic_help(self):
        reg = MetricsRegistry()
        reg.gauge("totally_new_gauge").set(3)
        assert "# HELP totally_new_gauge repro gauge." in reg.to_prometheus()

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("evil", path='a"b\\c\nd').inc()
        text = reg.to_prometheus()
        assert '\npath' not in text  # the newline must not split the line
        assert 'evil{path="a\\"b\\\\c\\nd"} 1' in text

    def test_help_text_escaped(self):
        from repro.telemetry.metrics import _escape_help

        assert _escape_help("a\\b\nc") == "a\\\\b\\nc"

    def test_exposition_round_trips_every_line(self):
        import re

        reg = MetricsRegistry()
        reg.counter("cache_hits").inc(2)
        reg.counter("server_requests_total", status="200").inc()
        reg.gauge("server_queue_depth").set(1)
        reg.histogram("server_request_seconds").observe(0.002)
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+\-]+$'
        )
        for line in reg.to_prometheus().splitlines():
            if not line:
                continue
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            assert sample.match(line), line
