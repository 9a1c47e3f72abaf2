"""Unit tests for direct stiffness summation and exchange schedules."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.partition.sfc import sfc_partition
from repro.seam.dss import DSSOperator, build_halo_schedule, build_point_map
from repro.seam.element import build_geometry

from .reference_point_map import reference_point_map


@pytest.fixture(scope="module")
def geom():
    return build_geometry(4, 6)


@pytest.fixture(scope="module")
def pmap(geom):
    return build_point_map(geom.mesh.ne, geom.npts)


@pytest.fixture(scope="module")
def dss(geom, pmap):
    return DSSOperator(geom, pmap)


class TestPointMap:
    def test_multiplicities(self, geom, pmap):
        """1 interior, 2 edge-interior, 3 at cube corners, 4 at mesh
        corners — the counts are fully determined by ne and np."""
        ne, npts = geom.mesh.ne, geom.npts
        nelem = geom.mesh.nelem
        hist = dict(zip(*map(list, np.unique(pmap.multiplicity, return_counts=True))))
        interior = nelem * (npts - 2) ** 2
        edge_interior = (npts - 2) * 2 * nelem  # 2*nelem mesh edges
        corner4 = 6 * ne * ne + 2 - 8
        assert hist[1] == interior
        assert hist[2] == edge_interior
        assert hist[3] == 8
        assert hist[4] == corner4

    def test_total_points(self, geom, pmap):
        assert pmap.point_ids.max() == pmap.npoints - 1
        assert pmap.multiplicity.sum() == geom.mesh.nelem * geom.npts**2

    def test_boundary_mask(self, geom, pmap):
        mask = pmap.boundary_mask()
        # Exactly the perimeter points of each element are shared.
        per_elem = mask.reshape(geom.mesh.nelem, -1).sum(axis=1)
        assert (per_elem == 4 * geom.npts - 4).all()


def _first_occurrence_labels(ids: np.ndarray) -> np.ndarray:
    """Relabel ids ``0, 1, ...`` in order of first appearance."""
    flat = ids.ravel()
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


class TestPointMapIds:
    """The lattice point map partitions element-local points exactly as
    the float-rounding reference does; only the id labels differ."""

    @pytest.mark.parametrize("npts", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("ne", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24])
    def test_partition_matches_float_oracle(self, ne, npts):
        geom = build_geometry(ne, npts)
        got = build_point_map(ne, npts)
        want = reference_point_map(geom)
        assert got.npoints == want.npoints
        canon = _first_occurrence_labels(got.point_ids)
        assert np.array_equal(canon, _first_occurrence_labels(want.point_ids))
        # Multiplicity, re-indexed by the canonical labels.
        mult_got = np.empty(got.npoints, dtype=np.int64)
        mult_got[canon] = got.multiplicity[got.point_ids.ravel()]
        mult_want = np.empty(want.npoints, dtype=np.int64)
        mult_want[canon] = want.multiplicity[want.point_ids.ravel()]
        assert np.array_equal(mult_got, mult_want)


class TestDSS:
    def test_applied_field_is_not_kept(self, dss, rng):
        """``apply`` holds no reference to its input or output."""
        q = rng.standard_normal(dss.local_mass.shape)
        out = dss.apply(q)
        refs = weakref.ref(q), weakref.ref(out)
        del q, out
        assert all(r() is None for r in refs)

    def test_read_only_field_projects_the_same(self, dss, rng):
        q = rng.standard_normal(dss.local_mass.shape)
        frozen = q.copy()
        frozen.setflags(write=False)
        np.testing.assert_array_equal(dss.apply(frozen), dss.apply(q))

    def test_projection_is_continuous(self, dss, rng):
        q = rng.standard_normal(dss.local_mass.shape)
        qc = dss.apply(q)
        assert dss.is_continuous(qc)

    def test_idempotent(self, dss, rng):
        q = rng.standard_normal(dss.local_mass.shape)
        qc = dss.apply(q)
        np.testing.assert_allclose(dss.apply(qc), qc, atol=1e-13)

    def test_preserves_continuous_fields(self, dss, geom):
        """A globally smooth function sampled at GLL points is already
        continuous, so DSS must not change it."""
        xyz = np.stack([e.xyz for e in geom.elements])
        q = xyz[..., 2] ** 2  # smooth on the sphere
        np.testing.assert_allclose(dss.apply(q), q, atol=1e-12)

    def test_conserves_integral(self, dss, rng):
        q = rng.standard_normal(dss.local_mass.shape)
        assert dss.integrate(dss.apply(q)) == pytest.approx(dss.integrate(q))

    def test_integrate_constant_gives_area(self, dss):
        ones = np.ones(dss.local_mass.shape)
        assert dss.integrate(ones) == pytest.approx(4 * np.pi, rel=1e-10)

    def test_interior_points_untouched(self, dss, rng, pmap):
        q = rng.standard_normal(dss.local_mass.shape)
        qc = dss.apply(q)
        interior = ~pmap.boundary_mask()
        np.testing.assert_allclose(qc[interior], q[interior], atol=1e-14)

    def test_is_continuous_detects_discontinuity(self, dss, rng):
        q = rng.standard_normal(dss.local_mass.shape)
        assert not dss.is_continuous(q)

    def test_complex_field_raises(self, geom, pmap):
        """A complex field is refused, not truncated to its real part."""
        op = DSSOperator(geom, pmap)
        with pytest.raises(TypeError, match="complex128"):
            op.apply(np.full(op.local_mass.shape, 1 + 2j))

    def test_point_map_of_another_grid_rejected(self):
        """A map of another np is refused, naming both shapes."""
        other = build_point_map(3, 4)
        with pytest.raises(ValueError, match=r"\(54, 4, 4\).*\(54, 8, 8\)"):
            DSSOperator(build_geometry(3, 8), other)


class TestExchangeSchedule:
    def test_symmetric_pairs(self, pmap):
        p = sfc_partition(4, 8)
        sched = build_halo_schedule(pmap, p)
        for (a, b), n in sched.items():
            assert sched[(b, a)] == n  # DSS exchanges are symmetric

    def test_no_self_messages(self, pmap):
        sched = build_halo_schedule(pmap, sfc_partition(4, 8))
        assert all(a != b for a, b in sched)

    def test_single_part_empty_schedule(self, pmap):
        sched = build_halo_schedule(pmap, sfc_partition(4, 1))
        assert sched == {}

    def test_counts_scale_with_npts(self):
        """More GLL points per edge -> more exchanged values."""
        p = sfc_partition(4, 8)
        small = build_halo_schedule(build_point_map(4, 4), p)
        large = build_halo_schedule(build_point_map(4, 8), p)
        assert sum(large.values()) > sum(small.values())

    def test_size_mismatch_rejected(self, pmap):
        with pytest.raises(ValueError, match="does not match"):
            build_halo_schedule(pmap, sfc_partition(2, 4))
