"""Unit tests for initial bisection methods."""

from __future__ import annotations

import numpy as np

from repro.metis.initial import greedy_graph_growing
from repro.metis.refine import fm_refine_bisection
from tests.conftest import grid_graph, two_cliques
from tests.graphs.spectral import spectral_initial_bisection


def cut_of(graph, side):
    u, v, w = graph.edge_array()
    return int(w[side[u] != side[v]].sum())


class TestGreedyGraphGrowing:
    def test_balance(self):
        g = grid_graph(6, 6)
        side = greedy_graph_growing(g, target_left=18, seed=0)
        assert (side == 0).sum() == 18

    def test_grown_side_contiguous(self):
        from repro.graphs.traversal import is_connected

        g = grid_graph(8, 8)
        side = greedy_graph_growing(g, target_left=32, seed=0)
        sub, _ = g.subgraph(np.flatnonzero(side == 0))
        assert is_connected(sub)

    def test_cut_beats_random_split(self):
        g = grid_graph(10, 10)
        side = greedy_graph_growing(g, target_left=50, seed=0)
        rng = np.random.default_rng(0)
        rand_cuts = []
        for _ in range(5):
            r = np.ones(100, dtype=np.int64)
            r[rng.permutation(100)[:50]] = 0
            rand_cuts.append(cut_of(g, r))
        assert cut_of(g, side) < min(rand_cuts)

    def test_splits_cliques_apart(self):
        g = two_cliques(8)
        side = greedy_graph_growing(g, target_left=8, seed=0)
        left = set(np.flatnonzero(side == 0).tolist())
        assert left in ({*range(8)}, {*range(8, 16)})

    def test_weighted_target(self):
        g = grid_graph(4, 4)
        # Give one vertex big weight; target_left equal to it.
        import dataclasses

        g = dataclasses.replace(
            g, vweights=np.array([10] + [1] * 15, dtype=np.int64)
        )
        side = greedy_graph_growing(g, target_left=12, seed=0)
        assert g.vweights[side == 0].sum() >= 12

    def test_disconnected_graph_handled(self):
        from repro.graphs.csr import graph_from_edges

        g = graph_from_edges(6, np.array([(0, 1), (2, 3), (4, 5)]))
        side = greedy_graph_growing(g, target_left=4, seed=0)
        assert (side == 0).sum() == 4

    def test_empty_graph(self):
        from repro.graphs.csr import graph_from_edges

        g = graph_from_edges(0, np.empty((0, 2)))
        assert len(greedy_graph_growing(g, target_left=0)) == 0


class TestSpectralBisection:
    def test_splits_cliques(self):
        g = two_cliques(6)
        side = spectral_initial_bisection(g, target_left=6)
        left = set(np.flatnonzero(side == 0).tolist())
        assert left in ({*range(6)}, {*range(6, 12)})

    def test_grid_split_is_straight(self):
        """Fiedler bisection of a grid cuts roughly down the middle."""
        g = grid_graph(8, 8)
        side = spectral_initial_bisection(g, target_left=32)
        assert (side == 0).sum() == 32
        assert cut_of(g, side) <= 12  # a straight cut costs 8

    def test_refined_spectral_split_keeps_balance(self, graph4):
        """FM refinement of a spectral initial split holds the target."""
        side = spectral_initial_bisection(graph4, target_left=48)
        side = fm_refine_bisection(graph4, side, 48, 48)
        assert (side == 0).sum() == 48
