"""Unit tests for spectral-element geometry on the cubed-sphere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.seam.element import build_geometry
from repro.seam.transport import solid_body_wind

from ..cubesphere.reference_mesh import exact_element_areas
from .reference_serial import reference_contravariant_wind


@pytest.fixture(scope="module")
def geom():
    return build_geometry(3, 5)


class TestGeometry:
    def test_total_area_is_sphere(self, geom):
        # Quadrature of the (non-polynomial) Jacobian: not exact, but
        # already tight at np=5 ...
        assert geom.total_area() == pytest.approx(4 * np.pi, rel=1e-5)
        # ... and spectrally convergent in np.
        err5 = abs(geom.total_area() - 4 * np.pi)
        err8 = abs(build_geometry(3, 8).total_area() - 4 * np.pi)
        assert err8 < err5 / 10

    def test_points_on_unit_sphere(self, geom):
        for e in geom.elements:
            np.testing.assert_allclose(
                np.linalg.norm(e.xyz, axis=-1), 1.0, atol=1e-14
            )

    def test_basis_tangent_to_sphere(self, geom):
        for e in geom.elements[:10]:
            assert np.abs(np.einsum("ijk,ijk->ij", e.xyz, e.basis_a)).max() < 1e-13
            assert np.abs(np.einsum("ijk,ijk->ij", e.xyz, e.basis_b)).max() < 1e-13

    def test_jacobian_positive(self, geom):
        for e in geom.elements:
            assert (e.jac > 0).all()

    def test_metric_inverse_correct(self, geom):
        e = geom.elements[7]
        g11 = np.einsum("ijk,ijk->ij", e.basis_a, e.basis_a)
        g12 = np.einsum("ijk,ijk->ij", e.basis_a, e.basis_b)
        g22 = np.einsum("ijk,ijk->ij", e.basis_b, e.basis_b)
        g = np.empty(g11.shape + (2, 2))
        g[..., 0, 0] = g11
        g[..., 0, 1] = g12
        g[..., 1, 0] = g12
        g[..., 1, 1] = g22
        prod = np.einsum("ijab,ijbc->ijac", g, e.ginv)
        np.testing.assert_allclose(prod[..., 0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(prod[..., 0, 1], 0.0, atol=1e-12)

    def test_jacobian_matches_quadrature_of_element_area(self, geom):
        """Per-element quadrature areas agree with the mesh's exact
        spherical-quad areas."""
        w = geom.basis.weights
        w2 = w[:, None] * w[None, :]
        quad_areas = np.array([(e.jac * w2).sum() for e in geom.elements])
        exact = exact_element_areas(geom.mesh)
        np.testing.assert_allclose(quad_areas, exact, rtol=1e-7)


class TestContravariantWind:
    def test_reconstruction_roundtrip(self, geom):
        """u = u^1 e_1 + u^2 e_2 must reconstruct the tangent field."""
        e = geom.elements[11]
        u = solid_body_wind(e.xyz, np.array([0.3, -0.5, 0.8]), omega=1.0)
        contra = reference_contravariant_wind(e, u)
        recon = (
            contra[..., 0, None] * e.basis_a + contra[..., 1, None] * e.basis_b
        )
        np.testing.assert_allclose(recon, u, atol=1e-12)

    def test_zero_wind(self, geom):
        e = geom.elements[0]
        contra = reference_contravariant_wind(e, np.zeros_like(e.xyz))
        np.testing.assert_allclose(contra, 0.0)


class TestBuildGeometry:
    def test_cached(self):
        assert build_geometry(2, 4) is build_geometry(2, 4)

    def test_npts_property(self, geom):
        assert geom.npts == 5

    def test_element_count(self, geom):
        assert len(geom.elements) == 54
