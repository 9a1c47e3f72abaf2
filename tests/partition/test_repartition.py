"""Unit tests for dynamic SFC repartitioning."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.cubesphere import cubed_sphere_curve
from repro.partition import (
    LoadTracker,
    load_balance,
    migration_cost,
    plan_repartition,
    sfc,
    sfc_partition,
)
from repro.partition.base import Partition

from tests.cubesphere.reference_curve import reference_cubed_sphere_curve

from .reference_sfc import partition_curve


@pytest.fixture(scope="module")
def curve():
    return cubed_sphere_curve(4)


def moving_weights(curve, center_gid: int, boost: float = 4.0) -> np.ndarray:
    """Weights with a hotspot around one element (curve-ordered blob)."""
    n = len(curve)
    w = np.ones(n)
    pos = curve.position[center_gid]
    lo, hi = max(0, pos - 8), min(n, pos + 8)
    hot = curve.order[lo:hi]
    w[hot] = boost
    return w


def recut(weights: np.ndarray, nparts: int, old: Partition | None = None) -> Partition:
    """Re-cut the ne=4 curve for ``weights`` through the one re-cut path,
    from ``old`` (default: the unweighted SFC cut)."""
    if old is None:
        old = sfc_partition(4, nparts)
    plan = plan_repartition(old.assignment, weights, ne=4, nparts=nparts)
    return Partition(plan.new_assignment, nparts, plan.method)


class TestMigrationCost:
    def test_identical_partitions_cost_nothing(self, curve):
        p = sfc_partition(4, 12)
        cost = migration_cost(p, p)
        assert cost.elements_moved == 0
        assert cost.fraction_moved == 0.0

    def test_counts_moved_elements(self):
        a = Partition(np.array([0, 0, 1, 1]), nparts=2)
        b = Partition(np.array([0, 1, 1, 0]), nparts=2)
        cost = migration_cost(a, b)
        assert cost.elements_moved == 2
        assert cost.fraction_moved == 0.5

    def test_weighted(self):
        a = Partition(np.array([0, 0, 1]), nparts=2)
        b = Partition(np.array([0, 1, 1]), nparts=2)
        cost = migration_cost(a, b, weights=np.array([1.0, 5.0, 1.0]))
        assert cost.weight_moved == 5.0

    def test_size_mismatch(self):
        a = Partition(np.array([0]), nparts=1)
        b = Partition(np.array([0, 0]), nparts=1)
        with pytest.raises(ValueError, match="different vertex sets"):
            migration_cost(a, b)


class TestRepartitionCurve:
    def test_balances_new_weights(self, curve):
        w = moving_weights(curve, center_gid=10)
        p = recut(w, 12)
        loads = np.bincount(p.assignment, weights=w, minlength=12)
        assert load_balance(loads) < 0.35

    def test_method_label(self, curve):
        assert recut(np.ones(len(curve)), 8).method == "sfc-rebal"
        tracker = LoadTracker(4, nparts=8)
        assert tracker.update(np.ones(len(curve))).method == "sfc-rebal"

    def test_small_weight_change_small_migration(self, curve):
        """The SFC rebalancing selling point: cuts only shift."""
        w1 = moving_weights(curve, center_gid=10)
        w2 = moving_weights(curve, center_gid=14)  # hotspot drifts
        p1 = recut(w1, 12)
        p2 = recut(w2, 12, old=p1)
        cost = migration_cost(p1, p2)
        assert cost.fraction_moved < 0.25

    def test_migration_beats_fresh_metis(self, curve):
        """Re-cutting the curve migrates far fewer elements than a
        from-scratch graph partition of the same weights."""
        from repro.graphs import mesh_graph
        from repro.metis import part_graph

        w1 = moving_weights(curve, 10)
        w2 = moving_weights(curve, 14)
        p1 = recut(w1, 12)
        p2 = recut(w2, 12, old=p1)
        sfc_cost = migration_cost(p1, p2)
        g = mesh_graph(curve.mesh, vweights=np.round(w2).astype(np.int64))
        metis_new = part_graph(g, 12, "kway", seed=0)
        metis_cost = migration_cost(p1, metis_new)
        assert sfc_cost.fraction_moved < metis_cost.fraction_moved

    def test_migration_monotone_with_hotspot_speed(self, curve):
        w0 = moving_weights(curve, 10)
        p0 = recut(w0, 12)
        costs = []
        for target in (12, 30):
            p = recut(moving_weights(curve, target), 12, old=p0)
            costs.append(migration_cost(p0, p).elements_moved)
        assert costs[0] <= costs[1]


class TestLoadTracker:
    def test_history_records_balance_and_migration(self, curve):
        tracker = LoadTracker(4, nparts=12)
        for center in (5, 9, 13, 17):
            tracker.update(moving_weights(curve, center))
        assert len(tracker.history) == 4
        assert tracker.history[0]["elements_moved"] == 0.0
        for entry in tracker.history[1:]:
            assert entry["elements_moved"] >= 0
            assert entry["lb"] < 0.5

    def test_history_equals_a_plan_per_step(self):
        """The tracker's history equals what a plan per step reports:
        the storm at Ne=8 on 16 parts, once through the tracker and once
        through ``plan_repartition`` from the previous step's owners."""
        from repro.scenarios import scenario_weights

        tracker = LoadTracker(8, nparts=16)
        old, rows = None, []
        for step in range(12):
            w = scenario_weights("storm", 8, step)
            tracker.update(w)
            if old is None:
                new = sfc_partition(8, 16, weights=w).assignment
                moved, fraction = 0.0, 0.0
            else:
                plan = plan_repartition(old, w, ne=8, nparts=16)
                new = plan.new_assignment
                moved, fraction = float(plan.elements_moved), plan.fraction_moved
                assert plan.lb_after == tracker.history[-1]["lb"]
            loads = np.bincount(new, weights=w, minlength=16)
            rows.append({
                "lb": load_balance(loads), "max_load": float(loads.max()),
                "mean_load": float(loads.mean()), "elements_moved": moved,
                "fraction_moved": fraction,
            })
            np.testing.assert_array_equal(tracker.current.assignment, new)
            old = new
        assert tracker.history == rows
        assert any(row["elements_moved"] for row in rows)

    def test_current_partition_valid(self, curve):
        tracker = LoadTracker(4, nparts=8)
        p = tracker.update(np.ones(len(curve)))
        p.validate()
        assert tracker.current is p

    def test_single_rebalance_step(self, curve):
        """One update: no prior partition, so migration is zero and the
        history holds exactly one fully-populated entry."""
        tracker = LoadTracker(4, nparts=12)
        p = tracker.update(moving_weights(curve, center_gid=20))
        assert len(tracker.history) == 1
        entry = tracker.history[0]
        assert entry["elements_moved"] == 0.0
        assert entry["fraction_moved"] == 0.0
        assert entry["max_load"] >= entry["mean_load"] > 0
        assert 0.0 <= entry["lb"] < 1.0
        assert tracker.current is p

    def test_all_equal_weights_zero_migration(self, curve):
        """Unchanged uniform weights re-cut identically: no migration,
        perfect balance at every step."""
        tracker = LoadTracker(4, nparts=12)
        w = np.ones(len(curve))
        first = tracker.update(w)
        second = tracker.update(w)
        assert np.array_equal(first.assignment, second.assignment)
        assert tracker.history[1]["elements_moved"] == 0.0
        assert tracker.history[1]["fraction_moved"] == 0.0
        # 96 elements over 12 parts divides evenly -> LB = 0 exactly.
        assert tracker.history[0]["lb"] == 0.0
        assert tracker.history[1]["lb"] == 0.0

    def test_nparts_exceeding_k_degenerate(self, curve):
        """More parts than elements cannot yield non-empty segments."""
        k = len(curve)
        tracker = LoadTracker(4, nparts=k + 1)
        with pytest.raises(ValueError, match=f"nparts must be in \\[1, K={k}\\]"):
            tracker.update(np.ones(k))
        assert tracker.current is None  # failed update records nothing
        assert tracker.history == []

    def test_nparts_equal_k_single_element_parts(self, curve):
        """nparts == K is the extreme legal cut: one element each."""
        k = len(curve)
        tracker = LoadTracker(4, nparts=k)
        p = tracker.update(np.ones(k))
        p.validate()
        assert np.array_equal(np.sort(p.assignment), np.arange(k))
        assert tracker.history[0]["lb"] == 0.0


class TestKeyedCurvePath:
    """The re-cut's streaming key path equals cutting the materialized curve."""

    def test_keyed_matches_materialized(self, curve):
        w = moving_weights(curve, center_gid=10)
        golden = partition_curve(reference_cubed_sphere_curve(4), 12, weights=w)
        np.testing.assert_array_equal(recut(w, 12).assignment, golden.assignment)

    def test_keyed_matches_materialized_chunked(self, curve):
        w = moving_weights(curve, center_gid=20)
        golden = partition_curve(reference_cubed_sphere_curve(4), 8, weights=w)
        with mock.patch.object(sfc, "DEFAULT_CHUNK", 17):
            via_ne = recut(w, 8)
        np.testing.assert_array_equal(via_ne.assignment, golden.assignment)


class TestPlanRepartition:
    def test_moves_reconstruct_new_assignment(self, curve):
        from repro.partition import plan_repartition

        w = moving_weights(curve, center_gid=30)
        old = sfc_partition(4, 12).assignment
        plan = plan_repartition(old, w, ne=4)
        rebuilt = old.copy()
        for rank, gids in plan.moves.items():
            rebuilt[gids] = rank
        np.testing.assert_array_equal(rebuilt, plan.new_assignment)

    def test_only_changed_elements_appear(self, curve):
        from repro.partition import plan_repartition

        w = moving_weights(curve, center_gid=30)
        old = sfc_partition(4, 12).assignment
        plan = plan_repartition(old, w, ne=4)
        listed = sum(len(g) for g in plan.moves.values())
        assert listed == plan.elements_moved
        for rank, gids in plan.moves.items():
            assert (old[gids] != rank).all()  # every listed gid truly moves
            assert (plan.new_assignment[gids] == rank).all()

    def test_lb_before_after_consistent(self, curve):
        from repro.partition import plan_repartition

        w = moving_weights(curve, center_gid=30)
        old = sfc_partition(4, 12).assignment
        plan = plan_repartition(old, w, ne=4)
        before = np.bincount(old, weights=w, minlength=12)
        after = np.bincount(plan.new_assignment, weights=w, minlength=12)
        assert plan.lb_before == pytest.approx(load_balance(before))
        assert plan.lb_after == pytest.approx(load_balance(after))
        assert plan.lb_after <= plan.lb_before + 1e-12
        assert plan.weight_moved == pytest.approx(
            float(w[old != plan.new_assignment].sum())
        )

    def test_moves_ordered_by_rank_then_gid(self, curve):
        from repro.partition import plan_repartition

        w = moving_weights(curve, center_gid=30)
        old = np.arange(len(curve)) % 12
        plan = plan_repartition(old, w, ne=4)
        assert list(plan.moves) == sorted(plan.moves)
        for rank, gids in plan.moves.items():
            assert (np.diff(gids) > 0).all()
            assert gids.dtype == np.int64

    def test_identity_plan_is_empty(self, curve):
        from repro.partition import plan_repartition

        old = sfc_partition(4, 12).assignment
        plan = plan_repartition(old, np.ones(len(curve)), ne=4)
        assert plan.elements_moved == 0
        assert plan.moves == {}
        assert plan.fraction_moved == 0.0

    def test_grow_and_shrink_nparts(self, curve):
        from repro.partition import plan_repartition

        old = sfc_partition(4, 12).assignment
        w = np.ones(len(curve))
        grown = plan_repartition(old, w, ne=4, nparts=16)
        shrunk = plan_repartition(old, w, ne=4, nparts=6)
        assert grown.nparts == 16 and grown.new_assignment.max() == 15
        assert shrunk.nparts == 6 and shrunk.new_assignment.max() == 5

    def test_method_label_and_registry_routing(self, curve):
        from repro.partition import plan_repartition

        w = moving_weights(curve, 12)
        old = sfc_partition(4, 12).assignment
        assert plan_repartition(old, w, ne=4).method == "sfc-rebal"
        assert plan_repartition(old, w, ne=4, method="morton").method == "morton"

    def test_unweighted_method_rejected(self, curve):
        from repro.partition import plan_repartition
        from repro.partition.registry import CapabilityError

        old = sfc_partition(4, 12).assignment
        with pytest.raises(CapabilityError, match="per-element weights"):
            plan_repartition(old, np.ones(len(curve)), ne=4, method="block")

    def test_malformed_old_assignment(self, curve):
        from repro.partition import plan_repartition

        with pytest.raises(ValueError, match="one owner per element"):
            plan_repartition(np.zeros(5, dtype=int), np.ones(96), ne=4)
        bad = np.zeros(96, dtype=int)
        bad[0] = -1
        with pytest.raises(ValueError, match="in \\[0, K\\)"):
            plan_repartition(bad, np.ones(96), ne=4)

    def test_plan_to_dict_json_ready(self, curve):
        import json

        from repro.partition import plan_repartition

        w = moving_weights(curve, 30)
        old = sfc_partition(4, 12).assignment
        plan = plan_repartition(old, w, ne=4)
        data = plan.to_dict(include_assignment=True)
        json.dumps(data)  # must be JSON-clean
        assert data["nparts"] == 12
        assert len(data["assignment"]) == 96
        assert all(isinstance(k, str) for k in data["moves"])
