"""Unit tests for SFC-ordered adaptive refinement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubesphere import cubed_sphere_curve
from repro.cubesphere.refinement import RefinedMesh, refine_uniform, refine_where
from repro.partition import load_balance, migration_cost


@pytest.fixture(scope="module")
def curve():
    return cubed_sphere_curve(4)


class TestConstruction:
    def test_uniform_base(self, curve):
        rm = refine_uniform(curve)
        assert rm.nleaves == 96
        assert (rm.leaves_per_element() == 1).all()

    def test_uniform_level(self, curve):
        rm = refine_uniform(curve, level=2)
        assert rm.nleaves == 96 * 16

    def test_refine_where(self, curve):
        mask = np.zeros(96, dtype=bool)
        mask[:5] = True
        rm = refine_where(curve, mask, level=1)
        assert rm.nleaves == 91 + 5 * 4

    def test_bad_levels_rejected(self, curve):
        with pytest.raises(ValueError, match="one entry per base"):
            RefinedMesh(curve, np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError, match="levels must be in"):
            RefinedMesh(curve, np.full(96, -1, dtype=np.int64))

    def test_bad_predicate_rejected(self, curve):
        with pytest.raises(ValueError, match="one entry per element"):
            refine_where(curve, np.zeros(7, dtype=bool))

    def test_refined_returns_new_state(self, curve):
        rm = refine_uniform(curve)
        rm2 = rm.refined(np.array([0, 1]))
        assert rm.nleaves == 96
        assert rm2.nleaves == 96 + 2 * 3


class TestPartitioning:
    def test_uniform_matches_plain_sfc(self, curve):
        from repro.partition import sfc_partition

        rm = refine_uniform(curve)
        p = rm.partition(12)
        q = sfc_partition(4, 12)
        np.testing.assert_array_equal(p.assignment, q.assignment)

    def test_refined_partition_balances_leaf_work(self, curve):
        mask = np.zeros(96, dtype=bool)
        mask[curve.order[:20]] = True  # refine the first curve stretch
        rm = refine_where(curve, mask, level=1)
        p = rm.partition(8)
        assert rm.imbalance(p) < 0.3
        # Unweighted element counts are now intentionally uneven.
        assert load_balance(p.part_sizes()) > 0.0

    def test_parts_contiguous_along_curve(self, curve):
        rm = refine_where(curve, np.arange(96) % 7 == 0, level=2)
        p = rm.partition(10)
        along = p.assignment[curve.order]
        assert (np.diff(along) >= 0).all()

    def test_refinement_step_causes_local_migration(self, curve):
        """Refining a few elements shifts cuts, not the whole map."""
        rm0 = refine_uniform(curve)
        p0 = rm0.partition(12)
        rm1 = rm0.refined(curve.order[40:44])
        p1 = rm1.partition(12)
        cost = migration_cost(p0, p1)
        assert cost.fraction_moved < 0.35

    def test_leaf_granularity_not_implemented(self, curve):
        rm = refine_uniform(curve, 1)
        with pytest.raises(NotImplementedError):
            rm.partition(4, atomic=False)

    def test_weighted_partition_shape_check(self, curve):
        rm = refine_uniform(curve)
        with pytest.raises(ValueError, match="one entry per base"):
            rm.partition_weighted(4, np.ones(3))

    def test_method_label(self, curve):
        assert refine_uniform(curve).partition(4).method == "sfc-amr"
