"""Unit and property tests for partition-quality metrics (paper Sec. 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import graph_from_edges
from repro.partition.base import Partition
from repro.partition.metrics import (
    edgecut,
    evaluate_partition,
    load_balance,
    weighted_edgecut,
)
from tests.conftest import grid_graph


class TestLoadBalanceEq1:
    """LB(S) = (max - avg) / max, the paper's Eq. 1."""

    def test_perfect_balance_is_zero(self):
        assert load_balance([4, 4, 4, 4]) == 0.0

    def test_paper_regime_two_vs_three(self):
        # 2 elements average, one processor with 3: LB = (3 - 2.x)/3.
        vals = [2] * 7 + [3]
        expected = (3 - np.mean(vals)) / 3
        assert load_balance(vals) == pytest.approx(expected)

    def test_single_loaded_processor(self):
        assert load_balance([8, 0, 0, 0]) == pytest.approx((8 - 2) / 8)

    def test_empty_and_zero(self):
        assert load_balance([]) == 0.0
        assert load_balance([0, 0]) == 0.0

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30)
    )
    def test_bounds(self, vals):
        lb = load_balance(vals)
        assert 0.0 <= lb < 1.0 or lb == 0.0


class TestEdgecut:
    def test_hand_computed(self):
        g = graph_from_edges(4, np.array([(0, 1), (1, 2), (2, 3)]), eweights=[5, 7, 9])
        p = Partition(np.array([0, 0, 1, 1]), nparts=2)
        assert edgecut(g, p) == 1
        assert weighted_edgecut(g, p) == 7

    def test_no_cut(self):
        g = grid_graph(3, 3)
        p = Partition(np.zeros(9, dtype=int), nparts=1)
        assert edgecut(g, p) == 0

    def test_all_cut(self):
        g = grid_graph(2, 2)
        p = Partition(np.arange(4), nparts=4)
        assert edgecut(g, p) == g.nedges


class TestEvaluatePartition:
    def test_full_report(self, graph4):
        from repro.partition.sfc import sfc_partition

        p = sfc_partition(4, 12)
        q = evaluate_partition(graph4, p)
        assert q.nparts == 12
        assert q.lb_nelemd == 0.0  # 96 / 12 exact
        assert q.edgecut > 0
        assert q.total_volume_points > 0
        assert q.method == "sfc"
        assert len(q.nelemd) == 12
        assert q.total_volume_mbytes(1_000_000) == pytest.approx(
            q.total_volume_points
        )

    def test_weighted_lb(self):
        g = graph_from_edges(
            4, np.array([(0, 1), (2, 3)]), vweights=[1, 1, 1, 5]
        )
        p = Partition(np.array([0, 0, 1, 1]), nparts=2)
        q = evaluate_partition(g, p)
        assert q.lb_nelemd == 0.0
        assert q.lb_weight == pytest.approx((6 - 4) / 6)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=99))
    def test_invariants_random_partitions(self, nparts, seed):
        g = grid_graph(5, 5)
        rng = np.random.default_rng(seed)
        p = Partition(rng.integers(nparts, size=25), nparts=nparts)
        q = evaluate_partition(g, p)
        assert 0 <= q.lb_nelemd < 1
        assert 0 <= q.lb_spcv < 1
        assert q.edgecut <= g.nedges
        assert q.weighted_edgecut >= q.edgecut  # weights >= 1
        assert q.total_volume_points == 2 * q.weighted_edgecut
        assert q.boundary_vertices <= g.nvertices
        assert q.nelemd.sum() == g.nvertices
