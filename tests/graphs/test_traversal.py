"""Unit tests for BFS, components and pseudo-peripheral vertices."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graphs.csr import graph_from_edges
from repro.graphs.traversal import (
    bfs_levels,
    connected_components,
    is_connected,
)
from tests.conftest import grid_graph, path_graph
from tests.metis.reference_kernels import pseudo_peripheral_vertex


class TestBFS:
    def test_levels_match_networkx(self, grid6x6):
        levels = bfs_levels(grid6x6, 0)
        u, v, _ = grid6x6.edge_array()
        gx = nx.Graph(list(zip(u.tolist(), v.tolist())))
        expected = nx.single_source_shortest_path_length(gx, 0)
        for vtx, lvl in expected.items():
            assert levels[vtx] == lvl

    def test_unreachable_is_minus_one(self):
        g = graph_from_edges(4, np.array([(0, 1), (2, 3)]))
        levels = bfs_levels(g, 0)
        assert levels.tolist() == [0, 1, -1, -1]

    def test_mask_restricts(self, grid6x6):
        mask = np.zeros(36, dtype=bool)
        mask[:6] = True  # first column only
        levels = bfs_levels(grid6x6, 0, mask)
        assert levels[:6].tolist() == [0, 1, 2, 3, 4, 5]
        assert (levels[6:] == -1).all()

    def test_source_outside_mask(self, grid6x6):
        mask = np.zeros(36, dtype=bool)
        levels = bfs_levels(grid6x6, 0, mask)
        assert (levels == -1).all()


class TestComponents:
    def test_connected_grid(self, grid6x6):
        assert is_connected(grid6x6)
        assert (connected_components(grid6x6) == 0).all()

    def test_two_components(self):
        g = graph_from_edges(5, np.array([(0, 1), (2, 3)]))
        comp = connected_components(g)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert len({comp[0], comp[2], comp[4]}) == 3
        assert not is_connected(g)

    def test_empty_graph_connected(self):
        g = graph_from_edges(0, np.empty((0, 2)))
        assert is_connected(g)

    def test_mesh_graph_connected(self, graph4):
        assert is_connected(graph4)


class TestPseudoPeripheral:
    def test_path_graph_finds_an_end(self):
        g = path_graph(10)
        v = pseudo_peripheral_vertex(g, start=4)
        assert v in (0, 9)

    def test_grid_finds_a_corner(self):
        g = grid_graph(5, 5)
        v = pseudo_peripheral_vertex(g, start=12)  # center
        assert v in (0, 4, 20, 24)

    def test_empty_mask_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="no vertices"):
            pseudo_peripheral_vertex(g, mask=np.zeros(3, dtype=bool))
