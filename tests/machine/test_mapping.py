"""Unit tests for rank-to-node mapping strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import (
    PerformanceModel,
    apply_mapping,
    greedy_comm_mapping,
    identity_mapping,
    random_mapping,
)
from repro.metis import part_graph
from repro.partition import sfc_partition


class TestBasicMappings:
    def test_identity(self):
        np.testing.assert_array_equal(identity_mapping(5), [0, 1, 2, 3, 4])

    def test_random_is_permutation(self):
        perm = random_mapping(16, seed=1)
        assert sorted(perm.tolist()) == list(range(16))

    def test_random_deterministic(self):
        np.testing.assert_array_equal(random_mapping(10, 3), random_mapping(10, 3))


class TestApplyMapping:
    def test_relabels(self):
        p = sfc_partition(4, 4)
        perm = np.array([3, 2, 1, 0])
        q = apply_mapping(p, perm)
        np.testing.assert_array_equal(q.assignment, perm[p.assignment])
        assert q.method.endswith("+mapped")

    def test_rejects_non_permutation(self):
        p = sfc_partition(4, 4)
        with pytest.raises(ValueError, match="permutation"):
            apply_mapping(p, np.array([0, 0, 1, 2]))
        with pytest.raises(ValueError, match="size"):
            apply_mapping(p, np.array([0, 1]))

    def test_identity_is_noop_on_assignment(self):
        p = sfc_partition(4, 8)
        q = apply_mapping(p, identity_mapping(8))
        np.testing.assert_array_equal(q.assignment, p.assignment)


class TestGreedyCommMapping:
    def test_is_permutation(self, graph8):
        model = PerformanceModel()
        p = part_graph(graph8, 48, "kway", seed=0)
        perm = greedy_comm_mapping(model, p)
        assert sorted(perm.tolist()) == list(range(48))

    def test_improves_metis_comm_time(self, graph8):
        """Topology-aware placement must beat random placement and
        should not lose to the arbitrary METIS numbering."""
        model = PerformanceModel()
        p = part_graph(graph8, 96, "kway", seed=0)
        t_plain = model.step_timing(p).comm_s.sum()
        t_rand = model.step_timing(
            apply_mapping(p, random_mapping(96, seed=5))
        ).comm_s.sum()
        perm = greedy_comm_mapping(model, p)
        t_greedy = model.step_timing(apply_mapping(p, perm)).comm_s.sum()
        assert t_greedy < t_rand
        assert t_greedy <= t_plain * 1.02

    def test_sfc_already_well_mapped(self):
        """Greedy mapping cannot improve much on SFC's natural rank
        locality — the 'free mapping' property of curve partitions."""
        model = PerformanceModel()
        p = sfc_partition(8, 96)
        base = model.step_timing(p).comm_s.sum()
        perm = greedy_comm_mapping(model, p)
        remapped = model.step_timing(apply_mapping(p, perm)).comm_s.sum()
        assert remapped > 0.7 * base  # no dramatic win available
