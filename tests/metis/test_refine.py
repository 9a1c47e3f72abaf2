"""Unit tests for FM and greedy K-way refinement.

The refinement properties run on the compiled kernels and on their
Python oracles (the ``kernels`` fixture); argument checks and seeded
runs go through the public functions only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metis.refine import balance_constraint, greedy_kway_refine
from tests.conftest import grid_graph, two_cliques


def cut_of(graph, assignment):
    u, v, w = graph.edge_array()
    return int(w[assignment[u] != assignment[v]].sum())


class TestBalanceConstraint:
    def test_exact_division(self):
        assert balance_constraint(100, 4, 1.0) == 25

    def test_metis_default_allows_one_extra_atom(self):
        # 2 elements/processor with 3% tolerance -> cap 3 (the regime
        # of the paper's Table 2).
        assert balance_constraint(1536, 768, 1.03) == 3

    def test_never_below_ceiling(self):
        assert balance_constraint(10, 3, 1.0) == 4

    def test_large_parts(self):
        assert balance_constraint(960, 10, 1.03) == 99


class TestFMBisection:
    def test_improves_bad_split(self, kernels):
        g = grid_graph(8, 8)
        # Strided split: terrible cut, perfectly balanced.
        side = (np.arange(64) % 2).astype(np.int64)
        before = cut_of(g, side)
        refined = kernels.fm_refine_bisection(g, side, 32, 32)
        after = cut_of(g, refined)
        assert after < before
        assert (refined == 0).sum() == 32

    def test_never_worsens(self, kernels):
        g = two_cliques(6)
        side = np.array([0] * 6 + [1] * 6, dtype=np.int64)
        before = cut_of(g, side)  # already optimal (1)
        refined = kernels.fm_refine_bisection(g, side, 6, 6)
        assert cut_of(g, refined) <= before

    def test_respects_caps(self, kernels):
        g = grid_graph(6, 6)
        side = (np.arange(36) % 2).astype(np.int64)
        refined = kernels.fm_refine_bisection(g, side, 20, 20)
        assert (refined == 0).sum() <= 20
        assert (refined == 1).sum() <= 20

    def test_rebalances_overweight_side(self, kernels):
        g = grid_graph(6, 6)
        side = np.zeros(36, dtype=np.int64)
        side[:6] = 1  # left side has 30 > cap 18
        refined = kernels.fm_refine_bisection(g, side, 18, 18)
        assert (refined == 0).sum() <= 18
        assert (refined == 1).sum() <= 18

    def test_input_not_mutated(self, kernels):
        g = grid_graph(4, 4)
        side = (np.arange(16) % 2).astype(np.int64)
        copy = side.copy()
        kernels.fm_refine_bisection(g, side, 8, 8)
        np.testing.assert_array_equal(side, copy)


class TestGreedyKway:
    def test_improves_random_partition(self, kernels):
        g = grid_graph(8, 8)
        rng = np.random.default_rng(0)
        assignment = rng.permutation(np.arange(64) % 4).astype(np.int64)
        before = cut_of(g, assignment)
        refined = kernels.greedy_kway_refine(g, assignment, 4, ubfactor=1.03, seed=0)
        assert cut_of(g, refined) < before

    def test_zero_gain_plateau_left_alone(self, kernels):
        """Greedy refinement (like METIS's) cannot escape an
        all-zero-gain plateau — documented, authentic behaviour."""
        g = grid_graph(8, 8)
        assignment = (np.arange(64) % 4).astype(np.int64)
        refined = kernels.greedy_kway_refine(g, assignment, 4, ubfactor=1.03, seed=0)
        assert cut_of(g, refined) <= cut_of(g, assignment)

    def test_balance_cap_respected(self, kernels):
        g = grid_graph(8, 8)
        assignment = (np.arange(64) % 4).astype(np.int64)
        refined = kernels.greedy_kway_refine(g, assignment, 4, ubfactor=1.03, seed=0)
        cap = balance_constraint(64, 4, 1.03)
        sizes = np.bincount(refined, minlength=4)
        assert sizes.max() <= cap

    def test_drains_overfull_part(self, kernels):
        # Part 0 owns 30 of 36 cells; part 1 owns a contiguous strip it
        # can grow from.  Refinement must pull part 0 under the cap.
        g = grid_graph(6, 6)
        assignment = np.zeros(36, dtype=np.int64)
        assignment[30:] = 1  # last column (x = 5)
        refined = kernels.greedy_kway_refine(g, assignment, 2, ubfactor=1.03, seed=0)
        cap = balance_constraint(36, 2, 1.03)
        assert np.bincount(refined, minlength=2).max() <= cap

    def test_volume_objective_runs_and_respects_balance(self, kernels):
        g = grid_graph(8, 8)
        assignment = (np.arange(64) % 4).astype(np.int64)
        refined = kernels.greedy_kway_refine(
            g, assignment, 4, ubfactor=1.03, objective="volume", seed=0
        )
        cap = balance_constraint(64, 4, 1.03)
        assert np.bincount(refined, minlength=4).max() <= cap

    def test_volume_objective_reduces_count_volume(self, kernels):
        from repro.partition.base import Partition

        def count_volume(assignment, nparts):
            p = Partition(assignment, nparts=nparts)
            # METIS unit-size volume: distinct external parts per vertex.
            total = 0
            a = p.assignment
            for v in range(g.nvertices):
                ext = {int(a[u]) for u in g.neighbors(v)} - {int(a[v])}
                total += len(ext)
            return total

        g = grid_graph(8, 8)
        assignment = (np.arange(64) % 4).astype(np.int64)
        refined = kernels.greedy_kway_refine(
            g, assignment, 4, ubfactor=1.03, objective="volume", seed=0
        )
        assert count_volume(refined, 4) < count_volume(assignment, 4)

    def test_unknown_objective(self):
        g = grid_graph(2, 2)
        with pytest.raises(ValueError, match="objective"):
            greedy_kway_refine(g, np.zeros(4, dtype=np.int64), 1, objective="x")

    def test_input_not_mutated(self, kernels):
        g = grid_graph(4, 4)
        assignment = (np.arange(16) % 2).astype(np.int64)
        copy = assignment.copy()
        kernels.greedy_kway_refine(g, assignment, 2, seed=0)
        np.testing.assert_array_equal(assignment, copy)


class TestRefinementEdgeCases:
    """Degenerate inputs the kernelized paths must handle exactly."""

    def _chain_with_heavy_head(self):
        from repro.graphs import graph_from_edges

        edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
        vw = np.array([5, 1, 1, 1], dtype=np.int64)
        return graph_from_edges(4, edges, vweights=vw)

    def test_max_passes_zero_is_identity(self, kernels):
        g = self._chain_with_heavy_head()
        side = np.array([0, 0, 1, 1], dtype=np.int64)
        out = kernels.fm_refine_bisection(g, side, 8, 8, max_passes=0)
        np.testing.assert_array_equal(out, side)

    def test_single_vertex_graph(self, kernels):
        from repro.graphs import graph_from_edges

        g = graph_from_edges(1, np.empty((0, 2), dtype=np.int64))
        np.testing.assert_array_equal(
            kernels.fm_refine_bisection(g, np.array([0]), 1, 1), [0]
        )
        np.testing.assert_array_equal(
            kernels.greedy_kway_refine(g, np.array([0]), 1), [0]
        )

    def test_caps_tighter_than_heaviest_vertex(self, kernels):
        # cap=4 < the weight-5 vertex: the rebalance sheds every light
        # vertex but the heavy one cannot fit anywhere; refinement must
        # terminate with the heavy vertex alone on its side.
        g = self._chain_with_heavy_head()
        side = np.array([0, 0, 1, 1], dtype=np.int64)
        out = kernels.fm_refine_bisection(g, side, 4, 4)
        assert set(out.tolist()) <= {0, 1}
        heavy_side = int(out[0])
        weights = [int(g.vweights[out == s].sum()) for s in (0, 1)]
        assert weights[heavy_side] == 5  # heavy vertex isolated
        assert weights[1 - heavy_side] == 3

    def test_seed_determinism_across_runs(self):
        from repro.metis import part_graph
        from tests.metis.test_golden import _generator

        g = _generator.random_weighted_graph(n=50, seed=7)
        for method in ("rb", "kway", "tv"):
            a = part_graph(g, 6, method, seed=11)
            b = part_graph(g, 6, method, seed=11)
            np.testing.assert_array_equal(a.assignment, b.assignment)
