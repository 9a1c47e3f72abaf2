"""Unit tests for partition structural analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import grid_2d
from repro.partition import (
    Partition,
    analyze_structure,
    sfc_partition,
)


class TestPartShapes:
    def test_sfc_parts_single_component(self, mesh4, graph4):
        s = analyze_structure(graph4, sfc_partition(4, 12))
        assert s.fragmented_parts == 0
        assert all(sh.is_connected for sh in s.shapes)

    def test_fragmented_partition_detected(self):
        g = grid_2d(4, 4)
        # Part 0 owns two opposite corners — two components (they are
        # corner-separated in a 4-connected grid).
        assignment = np.ones(16, dtype=np.int64)
        assignment[0] = 0
        assignment[15] = 0
        s = analyze_structure(g, Partition(assignment, nparts=2))
        assert s.shapes[0].components == 2
        assert s.fragmented_parts == 1

    def test_singleton_part_shape(self):
        g = grid_2d(3, 3)
        assignment = np.zeros(9, dtype=np.int64)
        assignment[4] = 1
        s = analyze_structure(g, Partition(assignment, nparts=2))
        sh = s.shapes[1]
        assert sh.size == 1
        assert sh.diameter == 0
        assert sh.components == 1

    def test_empty_part_shape(self):
        g = grid_2d(2, 2)
        s = analyze_structure(g, Partition(np.zeros(4, dtype=np.int64), nparts=2))
        assert s.shapes[1].size == 0
        assert s.shapes[1].components == 0

    def test_diameter_of_path_part(self):
        g = grid_2d(5, 1)  # a path
        s = analyze_structure(g, Partition(np.zeros(5, dtype=np.int64), nparts=1))
        assert s.shapes[0].diameter == 4

    def test_boundary_elements(self):
        g = grid_2d(4, 1)
        # Split 2/2 on a path: the two middle vertices are boundary.
        s = analyze_structure(
            g, Partition(np.array([0, 0, 1, 1]), nparts=2)
        )
        assert s.shapes[0].boundary_elements == 1
        assert s.shapes[1].boundary_elements == 1
        assert s.mean_boundary_fraction == pytest.approx(0.5)


class TestCutKinds:
    def test_mesh_graph_splits_edge_and_corner_cuts(self, mesh4, graph4):
        s = analyze_structure(graph4, sfc_partition(4, 24))
        # Mesh graphs have weight-8 (edge) and weight-1 (corner) links.
        assert set(s.cut_weight_by_kind) <= {1, 8}
        assert s.cut_weight_by_kind.get(8, 0) > 0

    def test_total_matches_weighted_edgecut(self, graph4):
        from repro.partition import evaluate_partition

        p = sfc_partition(4, 12)
        s = analyze_structure(graph4, p)
        q = evaluate_partition(graph4, p)
        assert sum(s.cut_weight_by_kind.values()) == q.weighted_edgecut


class TestWorstParts:
    def test_ranking(self):
        g = grid_2d(4, 4)
        assignment = np.ones(16, dtype=np.int64)
        assignment[0] = 0
        assignment[15] = 0
        s = analyze_structure(g, Partition(assignment, nparts=2))
        worst = s.worst_parts(1)
        assert worst[0].part == 0  # the fragmented one

    def test_limit(self, graph4):
        s = analyze_structure(graph4, sfc_partition(4, 12))
        assert len(s.worst_parts(5)) == 5
