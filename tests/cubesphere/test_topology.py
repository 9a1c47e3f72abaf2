"""Unit tests for cube topology and exact node identification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubesphere.mesh import CubedSphereMesh
from repro.cubesphere.topology import (
    FACES,
    NUM_FACES,
    Face,
    corner_nodes_scaled,
    face_point,
    lattice_coords,
    lattice_ids,
)


class TestFaces:
    def test_six_faces(self):
        assert len(FACES) == NUM_FACES == 6

    def test_frames_right_handed(self):
        for f in FACES:
            np.testing.assert_array_equal(
                np.cross(f.ex, f.ey), np.array(f.normal)
            )

    def test_normals_cover_all_directions(self):
        normals = {f.normal for f in FACES}
        assert normals == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        }

    def test_bad_frame_rejected(self):
        with pytest.raises(ValueError, match="ex x ey"):
            Face(0, (1, 0, 0), (0, 1, 0), (0, 1, 0))


class TestFacePoint:
    def test_center_is_normal(self):
        for f in FACES:
            np.testing.assert_allclose(
                face_point(f.index, 0.0, 0.0), np.array(f.normal, dtype=float)
            )

    def test_point_on_cube_surface(self):
        p = face_point(0, 0.3, -0.7)
        assert np.max(np.abs(p)) == pytest.approx(1.0)

    def test_vectorized(self):
        a = np.linspace(-1, 1, 5)
        p = face_point(2, a, a)
        assert p.shape == (5, 3)
        assert np.allclose(np.abs(p).max(axis=1), 1.0)


class TestCornerNodes:
    def test_shape(self):
        nodes = corner_nodes_scaled(0, 4)
        assert nodes.shape == (5, 5, 3)
        assert nodes.dtype == np.int64

    def test_all_on_scaled_cube_surface(self):
        ne = 3
        for face in range(6):
            nodes = corner_nodes_scaled(face, ne)
            assert (np.abs(nodes).max(axis=-1) == ne).all()

    def test_shared_edges_coincide_exactly(self):
        """Nodes on cube edges are bitwise equal between the two faces."""
        ne = 4
        all_nodes = [
            {tuple(n) for n in corner_nodes_scaled(f, ne).reshape(-1, 3).tolist()}
            for f in range(6)
        ]
        # Each pair of adjacent faces shares exactly ne+1 nodes; the
        # cube has 12 edges, so total shared-pair count is 12*(ne+1)
        # minus corner multi-counting.  Check the global unique count:
        # 6*(ne+1)^2 raw nodes collapse to 6*ne^2 + 2 unique.
        union = set().union(*all_nodes)
        assert len(union) == 6 * ne * ne + 2

    def test_adjacent_faces_share_edge_nodes(self):
        ne = 2
        a = {tuple(n) for n in corner_nodes_scaled(0, ne).reshape(-1, 3).tolist()}
        b = {tuple(n) for n in corner_nodes_scaled(1, ne).reshape(-1, 3).tolist()}
        assert len(a & b) == ne + 1

    def test_opposite_faces_share_nothing(self):
        ne = 3
        a = {tuple(n) for n in corner_nodes_scaled(0, ne).reshape(-1, 3).tolist()}
        b = {tuple(n) for n in corner_nodes_scaled(2, ne).reshape(-1, 3).tolist()}
        assert not (a & b)


class TestLatticeIds:
    def test_shape_and_range(self):
        ids, keys = lattice_ids(3, 4)
        assert ids.shape == (6 * 9, 5, 5)
        assert ids.dtype == keys.dtype == np.int64
        assert ids.min() == 0 and ids.max() == len(keys) - 1
        assert (np.diff(keys) > 0).all()

    def test_coords_decode_to_face_lattices(self):
        """Keys decode to exactly the union of the face lattices."""
        ne, m = 2, 3
        _, keys = lattice_ids(ne, m)
        coords = {tuple(c) for c in lattice_coords(keys, ne * m).tolist()}
        union = set()
        for f in range(NUM_FACES):
            union |= {
                tuple(n) for n in corner_nodes_scaled(f, ne * m).reshape(-1, 3).tolist()
            }
        assert coords == union

    def test_element_points_follow_face_lattice(self):
        """Point (i, j) of element (face, ix, iy) is node (ix*m+i, iy*m+j)."""
        ne, m = 3, 2
        ids, keys = lattice_ids(ne, m)
        coords = lattice_coords(keys, ne * m)
        face, ix, iy = 4, 2, 1
        nodes = corner_nodes_scaled(face, ne * m)
        block = nodes[ix * m : ix * m + m + 1, iy * m : iy * m + m + 1]
        gid = face * ne * ne + iy * ne + ix
        assert np.array_equal(coords[ids[gid]], block)

    @settings(max_examples=60, deadline=None)
    @given(ne=st.integers(1, 24), m=st.integers(1, 7))
    def test_point_counts_and_multiplicities(self, ne, m):
        ids, keys = lattice_ids(ne, m)
        nelem = 6 * ne * ne
        assert len(keys) == 6 * (ne * m) ** 2 + 2
        mult = np.bincount(ids.ravel(), minlength=len(keys))
        hist = dict(zip(*map(list, np.unique(mult, return_counts=True))))
        want = {
            1: nelem * (m - 1) ** 2,  # element interiors
            2: 2 * nelem * (m - 1),  # 2 * nelem element edges
            3: 8,  # cube corners
            4: 6 * ne * ne + 2 - 8,  # other element corners
        }
        assert hist == {k: v for k, v in want.items() if v}

    @settings(max_examples=30, deadline=None)
    @given(ne=st.integers(1, 24))
    def test_neighbor_counts_and_symmetry(self, ne):
        mesh = CubedSphereMesh(ne)
        assert (mesh.edge_adjacency.degrees() == 4).all()
        corner = mesh.corner_adjacency.degrees()
        if ne == 1:
            # Every face pair meeting at a corner also shares an edge.
            assert (corner == 0).all()
        else:
            # 3 elements meet at each of the 8 cube corners.
            assert np.count_nonzero(corner == 3) == 24
            assert np.count_nonzero(corner == 4) == mesh.nelem - 24
        for adj in (mesh.edge_adjacency, mesh.corner_adjacency):
            src = np.repeat(np.arange(mesh.nelem), adj.degrees())
            fwd = np.sort(src * mesh.nelem + adj.indices)
            rev = np.sort(adj.indices * mesh.nelem + src)
            assert np.array_equal(fwd, rev)
            assert not (src == adj.indices).any()
