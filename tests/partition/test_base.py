"""Unit tests for the Partition container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition.base import Partition


class TestConstruction:
    def test_basic(self):
        p = Partition(np.array([0, 1, 0, 2]), nparts=3, method="test")
        assert p.nvertices == 4
        assert p.nparts == 3
        assert p.method == "test"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Partition(np.array([0, 3]), nparts=3)
        with pytest.raises(ValueError, match="out-of-range"):
            Partition(np.array([-1, 0]), nparts=2)

    def test_bad_nparts(self):
        with pytest.raises(ValueError, match="nparts"):
            Partition(np.array([0]), nparts=0)

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            Partition(np.zeros((2, 2), dtype=int), nparts=1)

    def test_assignment_readonly(self):
        p = Partition(np.array([0, 1]), nparts=2)
        with pytest.raises(ValueError):
            p.assignment[0] = 1


class TestDerived:
    def test_part_sizes(self):
        p = Partition(np.array([0, 1, 0, 2, 1, 1]), nparts=4)
        assert p.part_sizes().tolist() == [2, 3, 1, 0]

    def test_part_weights(self):
        p = Partition(np.array([0, 1, 0]), nparts=2)
        w = p.part_weights(np.array([10, 20, 30]))
        assert w.tolist() == [40, 20]

    def test_members_sorted(self):
        p = Partition(np.array([1, 0, 1, 0]), nparts=2)
        assert p.members(1).tolist() == [0, 2]

    def test_validate_empty(self):
        p = Partition(np.array([0, 0]), nparts=2)
        with pytest.raises(ValueError, match="empty parts"):
            p.validate()
        p.validate(allow_empty=True)

    def test_with_method(self):
        p = Partition(np.array([0]), nparts=1)
        assert p.with_method("x").method == "x"

