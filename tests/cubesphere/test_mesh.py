"""Unit tests for the cubed-sphere element mesh."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubesphere.mesh import CubedSphereMesh, cubed_sphere_mesh
from repro.cubesphere.topology import lattice_coords

from .reference_mesh import reference_adjacency, reference_nodes


class TestIndexing:
    def test_gid_locate_roundtrip(self, mesh4):
        for gid in range(mesh4.nelem):
            face, ix, iy = mesh4.locate(gid)
            assert mesh4.gid(face, ix, iy) == gid

    def test_gid_bounds(self, mesh4):
        with pytest.raises(IndexError):
            mesh4.gid(6, 0, 0)
        with pytest.raises(IndexError):
            mesh4.gid(0, 4, 0)
        with pytest.raises(IndexError):
            mesh4.locate(96)

    def test_nelem(self):
        assert CubedSphereMesh(3).nelem == 54

    def test_invalid_ne(self):
        with pytest.raises(ValueError):
            CubedSphereMesh(0)


class TestAdjacency:
    def test_every_element_has_four_edge_neighbors(self, mesh4):
        assert (mesh4.edge_adjacency.degrees() == 4).all()

    def test_corner_neighbor_counts(self, mesh4):
        """24 cube-corner elements have 3 corner neighbors, rest 4."""
        deg = mesh4.corner_adjacency.degrees()
        vals, counts = np.unique(deg, return_counts=True)
        assert dict(zip(vals.tolist(), counts.tolist())) == {3: 24, 4: 72}

    def test_symmetry(self, mesh4):
        for gid in range(mesh4.nelem):
            for nb in mesh4.edge_neighbors(gid):
                assert gid in mesh4.edge_neighbors(int(nb))
            for nb in mesh4.corner_neighbors(gid):
                assert gid in mesh4.corner_neighbors(int(nb))

    def test_edge_and_corner_neighbors_disjoint(self, mesh4):
        for gid in range(mesh4.nelem):
            e = set(mesh4.edge_neighbors(gid).tolist())
            c = set(mesh4.corner_neighbors(gid).tolist())
            assert not (e & c)
            assert gid not in e | c

    def test_interior_adjacency_matches_grid(self, mesh8):
        """Face-interior neighbors are the obvious +-1 grid steps."""
        gid = mesh8.gid(2, 3, 3)
        expect = {
            mesh8.gid(2, 2, 3), mesh8.gid(2, 4, 3),
            mesh8.gid(2, 3, 2), mesh8.gid(2, 3, 4),
        }
        assert set(mesh8.edge_neighbors(gid).tolist()) == expect

    def test_cross_face_neighbors_exist(self, mesh4):
        """Boundary elements have neighbors on other faces."""
        ne = mesh4.ne
        gid = mesh4.gid(0, ne - 1, 1)  # east edge of face 0
        faces = {mesh4.locate(int(nb))[0] for nb in mesh4.edge_neighbors(gid)}
        assert faces == {0, 1}

    def test_all_neighbors_union(self, mesh4):
        gid = 17
        allnb = mesh4.all_neighbors(gid)
        assert len(allnb) in (7, 8)
        assert set(allnb.tolist()) == set(
            mesh4.edge_neighbors(gid).tolist()
        ) | set(mesh4.corner_neighbors(gid).tolist())

    def test_neighbor_pairs_counts(self, mesh4):
        edge_pairs, corner_pairs = mesh4.neighbor_pairs()
        # 4 edge neighbors each -> 2*nelem undirected edges.
        assert len(edge_pairs) == 2 * mesh4.nelem
        assert (edge_pairs[:, 0] < edge_pairs[:, 1]).all()
        assert (corner_pairs[:, 0] < corner_pairs[:, 1]).all()

    def test_ne1_adjacency(self):
        """At ne=1 each face-element touches the four adjacent faces."""
        m = CubedSphereMesh(1)
        assert (m.edge_adjacency.degrees() == 4).all()
        # No pure corner neighbors: all face pairs meeting at a corner
        # already share an edge at this degenerate resolution.
        assert (m.corner_adjacency.degrees() == 0).all()


class TestLatticeOracle:
    """The lattice-id topology equals the row-unique + dict-loop builders."""

    @staticmethod
    def _assert_identical(got: np.ndarray, want: np.ndarray) -> None:
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("ne", range(1, 25))
    def test_bit_identical_to_reference(self, ne):
        mesh = CubedSphereMesh(ne)
        element_nodes, nnodes, coords = reference_nodes(ne)
        (edge_ptr, edge_idx), (corner_ptr, corner_idx) = reference_adjacency(
            element_nodes, nnodes
        )
        assert mesh.nnodes == nnodes
        self._assert_identical(mesh.element_nodes, element_nodes)
        self._assert_identical(lattice_coords(mesh._node_keys, ne), coords)
        self._assert_identical(mesh.edge_adjacency.indptr, edge_ptr)
        self._assert_identical(mesh.edge_adjacency.indices, edge_idx)
        self._assert_identical(mesh.corner_adjacency.indptr, corner_ptr)
        self._assert_identical(mesh.corner_adjacency.indices, corner_idx)


class TestGeometry:
    def test_centers_on_sphere(self, mesh4):
        np.testing.assert_allclose(
            np.linalg.norm(mesh4.centers_xyz, axis=1), 1.0, atol=1e-14
        )

    def test_centers_cached_and_readonly(self, mesh4):
        a = mesh4.centers_xyz
        assert a is mesh4.centers_xyz
        with pytest.raises(ValueError):
            a[0, 0] = 2.0

    def test_lonlat_shapes(self, mesh4):
        lon, lat = mesh4.centers_lonlat
        assert lon.shape == lat.shape == (mesh4.nelem,)

    @pytest.mark.parametrize("projection", ["equiangular", "equidistant"])
    def test_areas_sum_to_sphere(self, projection):
        m = CubedSphereMesh(3, projection)
        assert m.element_areas().sum() == pytest.approx(4 * np.pi, rel=1e-12)

    def test_equiangular_areas_more_uniform(self):
        eq = CubedSphereMesh(8, "equiangular").element_areas()
        ed = CubedSphereMesh(8, "equidistant").element_areas()
        assert eq.max() / eq.min() < ed.max() / ed.min()

    def test_nnodes(self, mesh4):
        assert mesh4.nnodes == 6 * 16 + 2


class TestCache:
    def test_cached_constructor(self):
        assert cubed_sphere_mesh(2) is cubed_sphere_mesh(2)
        assert cubed_sphere_mesh(2) is not cubed_sphere_mesh(2, "equidistant")
