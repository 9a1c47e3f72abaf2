"""Unit tests for the per-rank timeline tracer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import PerformanceModel, trace_step
from repro.partition import Partition, sfc_partition


@pytest.fixture(scope="module")
def model():
    return PerformanceModel()


class TestTrace:
    def test_segments_cover_all_ranks(self, model):
        tr = trace_step(model, sfc_partition(4, 12))
        assert len(tr.segments) == 12
        assert [s.rank for s in tr.segments] == list(range(12))

    def test_exactly_one_critical_rank(self, model):
        tr = trace_step(model, sfc_partition(4, 12))
        assert sum(s.critical for s in tr.segments) == 1

    def test_critical_rank_sets_step_time(self, model):
        tr = trace_step(model, sfc_partition(4, 12))
        crit = tr.segments[tr.critical_rank]
        assert crit.total_s == pytest.approx(tr.timing.step_s)
        for s in tr.segments:
            assert s.total_s <= crit.total_s + 1e-15

    def test_idle_fraction_bounds(self, model):
        tr = trace_step(model, sfc_partition(4, 12))
        assert 0.0 <= tr.idle_fraction() < 1.0

    def test_imbalanced_partition_has_more_idle(self, model):
        balanced = sfc_partition(4, 8)
        bad = balanced.assignment.copy()
        bad[balanced.members(1)[:6]] = 0  # rank 0 takes half of rank 1
        imbalanced = Partition(bad, nparts=8)
        idle_bal = trace_step(model, balanced).idle_fraction()
        idle_bad = trace_step(model, imbalanced).idle_fraction()
        assert idle_bad > idle_bal


class TestRender:
    def test_contains_bars_and_marker(self, model):
        tr = trace_step(model, sfc_partition(4, 8))
        text = tr.render(width=30)
        assert "<== critical" in text
        assert "#" in text and "~" in text
        assert sum(ln.startswith("rank ") for ln in text.splitlines()) == 8

    def test_elides_large_rank_counts(self, model):
        tr = trace_step(model, sfc_partition(8, 96))
        text = tr.render(width=30, max_ranks=10)
        assert "ranks elided" in text
        assert "<== critical" in text

    def test_bar_lengths_proportional(self, model):
        tr = trace_step(model, sfc_partition(4, 4))
        width = 40
        text = tr.render(width=width)
        crit_line = next(
            ln for ln in text.splitlines() if "<== critical" in ln
        )
        bar = crit_line.split("|")[1]
        assert len(bar.rstrip()) == pytest.approx(width, abs=1)

    def test_rank_sums(self, model):
        tr = trace_step(model, sfc_partition(4, 6))
        assert tr.timing.compute_s.sum() == pytest.approx(
            sum(s.compute_s for s in tr.segments)
        )
        assert np.isclose(
            tr.timing.comm_s.sum(), sum(s.comm_s for s in tr.segments)
        )
