"""Unit tests for the Laplacian and spectral bisection."""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import grid_graph, path_graph, two_cliques
from tests.graphs.spectral import (
    fiedler_vector,
    laplacian_matrix,
    spectral_bisection_order,
)


class TestLaplacian:
    def test_rows_sum_to_zero(self, grid6x6):
        lap = laplacian_matrix(grid6x6)
        np.testing.assert_allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0)

    def test_psd(self):
        lap = laplacian_matrix(grid_graph(4, 4)).toarray()
        vals = np.linalg.eigvalsh(lap)
        assert vals.min() > -1e-12

    def test_smallest_eigenvalue_zero_for_connected(self):
        lap = laplacian_matrix(path_graph(8)).toarray()
        vals = np.sort(np.linalg.eigvalsh(lap))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] > 1e-8  # algebraic connectivity positive


class TestFiedler:
    def test_path_fiedler_is_monotone(self):
        """On a path the Fiedler vector is a half-cosine: monotone."""
        f = fiedler_vector(path_graph(12))
        d = np.diff(f)
        assert (d > 0).all() or (d < 0).all()

    def test_orthogonal_to_constants(self):
        f = fiedler_vector(grid_graph(5, 5))
        assert abs(f.sum()) < 1e-8

    def test_large_graph_uses_sparse_path(self, graph8):
        f = fiedler_vector(graph8)
        assert len(f) == graph8.nvertices
        assert abs(f.sum()) < 1e-6

    def test_too_small_rejected(self):
        from repro.graphs.csr import graph_from_edges

        g = graph_from_edges(1, np.empty((0, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            fiedler_vector(g)

    def test_deterministic(self):
        a = fiedler_vector(grid_graph(6, 6), seed=3)
        b = fiedler_vector(grid_graph(6, 6), seed=3)
        np.testing.assert_allclose(a, b)


class TestSpectralOrder:
    def test_separates_cliques(self):
        g = two_cliques(6)
        order = spectral_bisection_order(g)
        first_half = set(order[:6].tolist())
        assert first_half in ({0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11})

    def test_is_permutation(self):
        order = spectral_bisection_order(grid_graph(4, 5))
        assert sorted(order.tolist()) == list(range(20))
