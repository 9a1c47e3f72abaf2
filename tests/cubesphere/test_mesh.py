"""Unit tests for the cubed-sphere element mesh."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubesphere.mesh import CubedSphereMesh, cubed_sphere_mesh
from repro.cubesphere.topology import lattice_ids
from repro.graphs.csr import graph_from_edges, mesh_graph

from .reference_mesh import (
    exact_element_areas,
    lattice_coords,
    reference_adjacency,
    reference_nodes,
)


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
        assert (mesh4.neighbors[:, :4] >= 0).all()

    def test_corner_neighbor_counts(self, mesh4):
        """24 cube-corner elements have 3 corner neighbors, rest 4."""
        deg = np.count_nonzero(mesh4.neighbors[:, 4:] >= 0, axis=1)
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

    def test_ne1_adjacency(self):
        """At ne=1 each face-element touches the four adjacent faces."""
        m = CubedSphereMesh(1)
        assert (m.neighbors[:, :4] >= 0).all()
        # No pure corner neighbors: all face pairs meeting at a corner
        # already share an edge at this degenerate resolution.
        assert (m.neighbors[:, 4:] == -1).all()

    def test_table_is_read_only(self, mesh4):
        with pytest.raises(ValueError):
            mesh4.neighbors[0, 0] = 1


class TestLatticeOracle:
    """Lattice ids, the neighbor table and the mesh graph equal the
    row-unique + dict-loop builders."""

    @staticmethod
    def _assert_identical(got: np.ndarray, want: np.ndarray) -> None:
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @staticmethod
    def _pairs(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
        src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        keep = src < indices
        return np.stack([src[keep], indices[keep]], axis=1)

    @pytest.mark.parametrize("ne", range(1, 25))
    def test_bit_identical_to_reference(self, ne):
        mesh = CubedSphereMesh(ne)
        element_nodes, nnodes, coords = reference_nodes(ne)
        ids, keys = lattice_ids(ne, 1)
        self._assert_identical(ids[:, [0, 1, 1, 0], [0, 0, 1, 1]], element_nodes)
        assert len(keys) == nnodes
        self._assert_identical(lattice_coords(keys, ne), coords)

        edge, corner = reference_adjacency(element_nodes, nnodes)
        for cols, (indptr, indices) in ((slice(0, 4), edge), (slice(4, 8), corner)):
            rows = mesh.neighbors[:, cols]
            # Missing (-1) entries sort last as nelem, then drop.
            rows = np.sort(np.where(rows < 0, mesh.nelem, rows))
            has = rows < mesh.nelem
            self._assert_identical(rows[has], indices)
            self._assert_identical(np.r_[0, np.cumsum(has.sum(axis=1))], indptr)

        edge_pairs, corner_pairs = self._pairs(*edge), self._pairs(*corner)
        edges = np.concatenate([edge_pairs, corner_pairs])
        vweights = np.arange(mesh.nelem) % 5 + 1
        for kwargs in ({}, {"vweights": vweights}):
            for ew, cw in ((8, 1), (3, 2)):
                eweights = np.r_[np.full(len(edge_pairs), ew), np.full(len(corner_pairs), cw)]
                want = graph_from_edges(mesh.nelem, edges, eweights, **kwargs)
                got = mesh_graph(mesh, ew, cw, **kwargs)
                for name in ("indptr", "indices", "eweights", "vweights"):
                    self._assert_identical(getattr(got, name), getattr(want, name))


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
        assert exact_element_areas(m).sum() == pytest.approx(4 * np.pi, rel=1e-12)

    def test_equiangular_areas_more_uniform(self):
        eq = exact_element_areas(CubedSphereMesh(8, "equiangular"))
        ed = exact_element_areas(CubedSphereMesh(8, "equidistant"))
        assert eq.max() / eq.min() < ed.max() / ed.min()

    def test_nnodes(self, mesh4):
        """Euler's V = 2 - F + E over the table's edges numbers exactly
        the lattice's corner nodes."""
        _, keys = lattice_ids(mesh4.ne, 1)
        nedges = np.count_nonzero(mesh4.neighbors[:, :4] >= 0) // 2
        assert len(keys) == 2 - mesh4.nelem + nedges == 6 * 16 + 2


class TestCache:
    def test_cached_constructor(self):
        assert cubed_sphere_mesh(2) is cubed_sphere_mesh(2)
        assert cubed_sphere_mesh(2) is not cubed_sphere_mesh(2, "equidistant")
