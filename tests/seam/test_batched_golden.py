"""Golden equivalence tests for the batched SEAM engine.

The batched engine (stacked geometry, fused bincount DSS, BLAS
derivative chains) must reproduce the preserved pre-batching reference
implementations in ``tests/seam/reference_serial.py`` — exactly where the op
order is unchanged, and to <= 1e-12 where reassociation is allowed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memo import stage_cache_stats
from repro.seam import (
    ShallowWaterSolver,
    build_geometry,
    clear_dss_memo,
    shared_dss_operator,
    williamson_tc2,
)
from repro.seam.dss import DSSOperator

from .reference_dss import apply_numpy
from .reference_serial import (
    ReferenceDSS,
    ReferenceShallowWaterSolver,
    reference_element_geometry,
)


@pytest.fixture(scope="module")
def geom():
    return build_geometry(3, 8)


@pytest.fixture(scope="module")
def dss(geom):
    return DSSOperator(geom)


class TestGeometryStacks:
    """The vectorized per-face build equals the per-element loop."""

    def test_stacks_match_element_loop(self, geom):
        for gid in [0, 1, geom.nelem // 2, geom.nelem - 1]:
            ref = reference_element_geometry(geom.mesh, geom.basis, gid)
            np.testing.assert_array_equal(geom.xyz[gid], ref.xyz)
            np.testing.assert_allclose(
                geom.basis_a[gid], ref.basis_a, rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(
                geom.basis_b[gid], ref.basis_b, rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(geom.jac[gid], ref.jac, rtol=1e-14)
            np.testing.assert_allclose(
                geom.ginv[gid], ref.ginv, rtol=0, atol=1e-12
            )

    def test_elements_view_stacks(self, geom):
        """Lazy per-element views alias the stacks, not copies."""
        e = geom.elements[5]
        assert e.xyz.base is not None
        np.testing.assert_array_equal(e.xyz, geom.xyz[5])


class TestDSSGolden:
    """Fused bincount/C-kernel DSS vs the historical np.add.at scatter."""

    def test_scalar_matches_reference(self, geom, dss):
        ref = ReferenceDSS(geom, dss.point_map)
        q = np.random.default_rng(1).standard_normal(geom.xyz.shape[:3])
        got = dss.apply(q)
        np.testing.assert_allclose(got, ref.apply(q), rtol=0, atol=1e-13)
        assert dss.is_continuous(got)

    def test_component_axes_match_per_component_loop(self, geom, dss):
        """One (nelem, np, np, 3) apply == three scalar applies."""
        ref = ReferenceDSS(geom, dss.point_map)
        v = np.random.default_rng(2).standard_normal((*geom.xyz.shape[:3], 3))
        got = dss.apply(v)
        np.testing.assert_allclose(
            got, ref.apply_vector(v), rtol=0, atol=1e-13
        )

    def test_out_parameter_and_inplace(self, geom, dss):
        v = np.random.default_rng(3).standard_normal((*geom.xyz.shape[:3], 3))
        expect = dss.apply(v)
        out = np.empty_like(v)
        assert dss.apply(v, out=out) is out
        np.testing.assert_array_equal(out, expect)
        work = v.copy()
        dss.apply(work, out=work)  # aliased in-place apply
        np.testing.assert_array_equal(work, expect)

    def test_out_validation(self, geom, dss):
        v = np.random.default_rng(4).standard_normal(geom.xyz.shape[:3])
        with pytest.raises(ValueError, match="C-contiguous float64"):
            dss.apply(v, out=np.empty(v.shape, dtype=np.float32))
        with pytest.raises(ValueError, match="C-contiguous float64"):
            dss.apply(v, out=np.empty((*v.shape, 2))[..., 0])
        frozen = np.zeros(v.shape)
        frozen.setflags(write=False)
        with pytest.raises(ValueError, match="writable"):
            dss.apply(v, out=frozen)
        assert not frozen.any()

    def test_c_kernel_bitwise_matches_numpy_oracle(self, geom, dss):
        """The C kernel and the NumPy oracle agree to the last bit."""
        for shape in [geom.xyz.shape[:3], (*geom.xyz.shape[:3], 3)]:
            q = np.random.default_rng(5).standard_normal(shape)
            np.testing.assert_array_equal(dss.apply(q), apply_numpy(dss, q))

    def test_interior_points_pass_through_unchanged(self, geom, dss):
        """Multiplicity-1 points are untouched copies, bit for bit."""
        q = np.random.default_rng(6).standard_normal(geom.xyz.shape[:3])
        got = dss.apply(q)
        interior = dss.point_map.multiplicity[dss.point_map.point_ids] == 1
        np.testing.assert_array_equal(got[interior], q[interior])


class TestShallowWaterGolden:
    """Batched BLAS solver vs the preserved einsum reference."""

    def test_rhs_matches_reference(self, geom):
        new = ShallowWaterSolver(geom)
        old = ReferenceShallowWaterSolver(geom)
        state = williamson_tc2(geom)
        r_new = new.rhs(state)
        r_old = old.rhs(state)
        assert np.abs(r_new.v - r_old.v).max() < 1e-12
        assert np.abs(r_new.h - r_old.h).max() < 1e-12

    def test_one_rk3_step_matches_reference(self, geom):
        new = ShallowWaterSolver(geom)
        old = ReferenceShallowWaterSolver(geom)
        state = williamson_tc2(geom)
        dt = 0.5 * new.stable_dt(state, 0.4)
        s_new = new.step(state, dt)
        s_old = old.step(state.copy(), dt)
        assert np.abs(s_new.v - s_old.v).max() < 1e-12
        assert np.abs(s_new.h - s_old.h).max() < 1e-12

    def test_operator_helpers_match_reference(self, geom):
        new = ShallowWaterSolver(geom)
        old = ReferenceShallowWaterSolver(geom)
        rng = np.random.default_rng(7)
        s = rng.standard_normal(geom.xyz.shape[:3])
        v = rng.standard_normal(geom.xyz.shape)
        assert np.abs(new.gradient(s) - old.gradient(s)).max() < 1e-12
        assert np.abs(new.divergence(v) - old.divergence(v)).max() < 1e-12
        assert (
            np.abs(new.advect_scalar(v, s) - old.advect_scalar(v, s)).max()
            < 1e-12
        )
        assert (
            np.abs(new.project_tangent(v) - old.project_tangent(v)).max()
            < 1e-13
        )

    def test_stable_dt_rejects_negative_depth(self, geom):
        solver = ShallowWaterSolver(geom)
        state = williamson_tc2(geom)
        state.h[0, 0, 0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            solver.stable_dt(state)

    def test_stable_dt_matches_precomputed_scale(self, geom):
        """Hoisted metric scale gives the same dt as before the PR."""
        solver = ShallowWaterSolver(geom)
        state = williamson_tc2(geom)
        dt = solver.stable_dt(state, cfl=0.4)
        assert 0 < dt < np.inf
        # Doubling CFL doubles dt (pure scale factor).
        assert np.isclose(solver.stable_dt(state, cfl=0.8), 2 * dt)


class TestCaches:
    def test_shared_dss_operator_memoized(self, geom):
        clear_dss_memo()
        op1 = shared_dss_operator(geom)
        op2 = shared_dss_operator(geom)
        assert op1 is op2
        stats = stage_cache_stats()["dss"]
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_solvers_share_default_operator(self, geom):
        clear_dss_memo()
        a = ShallowWaterSolver(geom)
        b = ShallowWaterSolver(geom)
        assert a.dss is b.dss

    def test_memo_rejects_stale_geometry(self, geom):
        """Same (ne, npts) but a different geometry object rebuilds."""
        clear_dss_memo()
        op1 = shared_dss_operator(geom)
        from repro.seam.element import _build_grid_geometry

        rebuilt = _build_grid_geometry(geom.mesh.ne, geom.npts)
        op2 = shared_dss_operator(rebuilt)
        assert op2 is not op1
        assert op2.geom is rebuilt

    def test_geometry_cache_counts_hits(self, geom):
        before = stage_cache_stats()["geometry"]
        cached = build_geometry(geom.mesh.ne, geom.npts)  # already cached
        after = stage_cache_stats()["geometry"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert cached is geom
