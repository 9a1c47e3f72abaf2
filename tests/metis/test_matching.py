"""Unit tests for coarsening matchings."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import graph_from_edges
from repro.metis.matching import heavy_edge_matching, random_matching
from tests.conftest import grid_graph


def assert_valid_matching(graph, match):
    n = graph.nvertices
    for v in range(n):
        assert match[match[v]] == v  # involution
        if match[v] != v:
            assert match[v] in graph.neighbors(v)  # matched along an edge


class TestRandomMatching:
    def test_valid_on_grid(self):
        g = grid_graph(5, 5)
        match = random_matching(g, seed=0)
        assert_valid_matching(g, match)

    def test_maximal(self):
        """No two adjacent vertices may both be unmatched."""
        g = grid_graph(4, 4)
        match = random_matching(g, seed=3)
        unmatched = {v for v in range(16) if match[v] == v}
        for v in unmatched:
            assert not (set(g.neighbors(v).tolist()) & unmatched)

    def test_deterministic(self):
        g = grid_graph(4, 4)
        np.testing.assert_array_equal(
            random_matching(g, seed=5), random_matching(g, seed=5)
        )


class TestHeavyEdgeMatching:
    def test_valid(self, graph4):
        match = heavy_edge_matching(graph4, seed=0)
        assert_valid_matching(graph4, match)

    def test_prefers_heavy_edges(self):
        # Star of light edges plus one heavy edge: the heavy edge must
        # be in the matching.
        edges = np.array([(0, 1), (0, 2), (0, 3), (2, 3)])
        g = graph_from_edges(4, edges, eweights=[1, 1, 1, 100])
        match = heavy_edge_matching(g, seed=0)
        assert match[2] == 3 and match[3] == 2

    def test_hides_more_weight_than_random_on_mesh(self, graph8):
        def hidden_weight(match):
            total = 0
            for v in range(graph8.nvertices):
                u = match[v]
                if u > v:
                    nbrs = graph8.neighbors(v)
                    w = graph8.neighbor_weights(v)
                    total += int(w[list(nbrs).index(u)])
            return total

        hem = np.mean(
            [hidden_weight(heavy_edge_matching(graph8, seed=s)) for s in range(3)]
        )
        rnd = np.mean(
            [hidden_weight(random_matching(graph8, seed=s)) for s in range(3)]
        )
        assert hem > rnd

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_valid_for_any_seed(self, seed):
        g = grid_graph(4, 5)
        assert_valid_matching(g, heavy_edge_matching(g, seed=seed))

    def test_isolated_vertices_stay_unmatched(self):
        g = graph_from_edges(3, np.array([(0, 1)]))
        match = heavy_edge_matching(g, seed=0)
        assert match[2] == 2
