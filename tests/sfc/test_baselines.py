"""Unit tests for the baseline orderings (boustrophedon, Morton)."""

from __future__ import annotations

import pytest

from repro.sfc import analyze_curve, hilbert_curve
from repro.sfc.baselines import (
    boustrophedon_curve,
    is_continuous_ordering,
    morton_curve,
)


class TestBoustrophedon:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 10])
    def test_bijective(self, size):
        c = boustrophedon_curve(size)
        assert len({tuple(p) for p in c.coords.tolist()}) == size * size

    @pytest.mark.parametrize("size", [2, 3, 7, 8])
    def test_continuous(self, size):
        assert is_continuous_ordering(boustrophedon_curve(size))

    def test_no_size_restriction(self):
        """Unlike Hilbert/Peano, any side length works (5 = prime)."""
        c = boustrophedon_curve(5)
        assert c.size == 5

    def test_visit_order(self):
        c = boustrophedon_curve(2)
        assert [c.cell_at(k) for k in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            boustrophedon_curve(0)

    def test_stringier_than_hilbert(self):
        """The whole point: scanline segments have worse locality."""
        h = analyze_curve(hilbert_curve(4), nsegments=8)
        b = analyze_curve(boustrophedon_curve(16), nsegments=8)
        assert h.mean_bbox_aspect < b.mean_bbox_aspect
        assert h.mean_surface_to_volume < b.mean_surface_to_volume


class TestMorton:
    @pytest.mark.parametrize("level", [0, 1, 2, 4])
    def test_bijective(self, level):
        c = morton_curve(level)
        n = 2**level
        assert len({tuple(p) for p in c.coords.tolist()}) == n * n

    def test_level1_is_z_shape(self):
        c = morton_curve(1)
        assert [c.cell_at(k) for k in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_not_continuous(self):
        """Morton jumps — why the paper needs Hilbert, not Z-order."""
        assert not is_continuous_ordering(morton_curve(2))
        assert (morton_curve(3).step_lengths() > 1).any()

    def test_locality_competitive_with_hilbert(self):
        """Despite the jumps, Morton segments are reasonably compact."""
        h = analyze_curve(hilbert_curve(4), nsegments=16)
        m = analyze_curve(morton_curve(4), nsegments=16)
        b = analyze_curve(boustrophedon_curve(16), nsegments=16)
        assert m.mean_surface_to_volume < b.mean_surface_to_volume
        assert m.mean_surface_to_volume < 2.0 * h.mean_surface_to_volume

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            morton_curve(-1)


class TestIsContinuous:
    def test_hilbert_is(self):
        assert is_continuous_ordering(hilbert_curve(3))

    def test_trivial_is(self):
        assert is_continuous_ordering(morton_curve(0))
