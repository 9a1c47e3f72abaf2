"""The cubed-sphere element mesh: indexing, adjacency, geometry.

For partitioning purposes (paper Sec. 1) a spectral element is the
atomic unit: the mesh is the set of ``K = 6 * Ne * Ne`` quadrilateral
elements together with its neighbor structure.  Communication between
processors is determined by neighboring elements that share a boundary
(*edge neighbors*, ``np`` shared GLL points) or a single corner point
(*corner neighbors*, one shared point).

Corner nodes are the integer lattice ids of
:func:`repro.cubesphere.topology.lattice_ids` at one interval per
element edge, the same function that numbers the DSS points of the
spectral element grid.  Adjacency is counted from shared node ids in
one sorted int64 pair key, so cross-face neighbors and the eight
special cube corners — where only three elements meet and an element
has seven, not eight, neighbors — come out of the same code path as
face-interior neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .projection import element_center_local, local_to_sphere, sphere_to_lonlat
from .topology import NUM_FACES, lattice_coords, lattice_ids

__all__ = ["CubedSphereMesh", "cubed_sphere_mesh"]


@dataclass(frozen=True)
class _Adjacency:
    """CSR-style neighbor lists (indptr/indices) for one relation."""

    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, e: int) -> np.ndarray:
        return self.indices[self.indptr[e] : self.indptr[e + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


class CubedSphereMesh:
    """Element mesh of the cubed-sphere at resolution ``Ne``.

    Element global ids are ``gid = face * Ne^2 + iy * Ne + ix`` with
    ``ix`` varying fastest; ``(ix, iy)`` are the face-local cell
    coordinates used by the space-filling curves (origin at the face's
    local bottom-left).

    Args:
        ne: Elements along each cube-face edge (paper's ``Ne``).
        projection: Gnomonic variant for geometry queries
            (``"equiangular"`` or ``"equidistant"``).
    """

    def __init__(self, ne: int, projection: str = "equiangular"):
        if ne < 1:
            raise ValueError(f"ne must be >= 1, got {ne}")
        self.ne = int(ne)
        self.projection = projection
        self.nelem = 6 * self.ne * self.ne
        self._build_topology()
        self._centers_xyz: np.ndarray | None = None
        self._centers_lonlat: tuple[np.ndarray, np.ndarray] | None = None
        self._center_lat_trig: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def gid(self, face: int, ix: int, iy: int) -> int:
        """Global element id of face-local cell ``(ix, iy)``."""
        ne = self.ne
        if not (0 <= face < NUM_FACES and 0 <= ix < ne and 0 <= iy < ne):
            raise IndexError(f"element (face={face}, ix={ix}, iy={iy}) out of range")
        return face * ne * ne + iy * ne + ix

    def gids(self, face: int, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`gid` (no bounds check)."""
        ne = self.ne
        return face * ne * ne + iy * ne + ix

    def locate(self, gid: int) -> tuple[int, int, int]:
        """Inverse of :meth:`gid`: returns ``(face, ix, iy)``."""
        ne = self.ne
        if not 0 <= gid < self.nelem:
            raise IndexError(f"gid {gid} out of range [0, {self.nelem})")
        face, rem = divmod(gid, ne * ne)
        iy, ix = divmod(rem, ne)
        return face, ix, iy

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_topology(self) -> None:
        ids, keys = lattice_ids(self.ne, 1)
        self.nnodes = int(keys.shape[0])
        #: (nelem, 4) node ids of each element's corners (CCW in face
        #: frame): (ix,iy) -> nodes (i,j),(i+1,j),(i+1,j+1),(i,j+1).
        self.element_nodes = ids[:, [0, 1, 1, 0], [0, 0, 1, 1]]
        self._node_keys = keys
        # The 3 or 4 elements meeting at each node, as runs of one sort;
        # every pair within a run shares that node.  A pair sharing two
        # nodes shares an edge, one sharing a single node a corner.
        flat = self.element_nodes.ravel()
        order = np.argsort(flat, kind="stable")
        elems = order // 4
        starts = np.flatnonzero(np.r_[True, np.diff(flat[order]) != 0])
        counts = np.diff(np.r_[starts, len(order)])
        pair_keys = []
        for size in np.unique(counts).tolist():
            members = elems[starts[counts == size][:, None] + np.arange(size)]
            # The stable sort keeps each run in ascending element order.
            a, b = np.triu_indices(size, 1)
            pair_keys.append((members[:, a] * self.nelem + members[:, b]).ravel())
        pairs, shared = np.unique(np.concatenate(pair_keys), return_counts=True)
        self.edge_adjacency = self._to_csr(pairs[shared >= 2])
        self.corner_adjacency = self._to_csr(pairs[shared == 1])

    def _to_csr(self, pairs: np.ndarray) -> _Adjacency:
        """CSR of undirected ``lo * nelem + hi`` pair keys, both ways."""
        lo, hi = np.divmod(pairs, self.nelem)
        both = np.sort(np.concatenate([pairs, hi * self.nelem + lo]))
        src, dst = np.divmod(both, self.nelem)
        indptr = np.searchsorted(src, np.arange(self.nelem + 1))
        return _Adjacency(indptr=indptr, indices=dst)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def edge_neighbors(self, gid: int) -> np.ndarray:
        """Elements sharing a full edge with ``gid`` (always 4)."""
        return self.edge_adjacency.neighbors(gid)

    def corner_neighbors(self, gid: int) -> np.ndarray:
        """Elements sharing exactly one corner point with ``gid``
        (4 for generic elements, 3 for the 24 cube-corner elements)."""
        return self.corner_adjacency.neighbors(gid)

    def all_neighbors(self, gid: int) -> np.ndarray:
        """Union of edge and corner neighbors, sorted."""
        return np.sort(
            np.concatenate([self.edge_neighbors(gid), self.corner_neighbors(gid)])
        )

    def neighbor_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected neighbor pairs ``(edge_pairs, corner_pairs)``.

        Returns:
            Two ``(m, 2)`` arrays with ``pair[:, 0] < pair[:, 1]``.
        """

        def undirected(adj: _Adjacency) -> np.ndarray:
            src = np.repeat(np.arange(self.nelem), adj.degrees())
            mask = src < adj.indices
            return np.stack([src[mask], adj.indices[mask]], axis=1)

        return undirected(self.edge_adjacency), undirected(self.corner_adjacency)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def centers_xyz(self) -> np.ndarray:
        """Unit-sphere positions of element centers, ``(nelem, 3)``."""
        if self._centers_xyz is None:
            ne = self.ne
            out = np.empty((self.nelem, 3), dtype=np.float64)
            a, b = element_center_local(ne)
            for face in range(NUM_FACES):
                xyz = local_to_sphere(face, a, b, self.projection)
                ix, iy = np.meshgrid(np.arange(ne), np.arange(ne), indexing="ij")
                g = self.gids(face, ix, iy)
                out[g.ravel()] = xyz.reshape(-1, 3)
            out.setflags(write=False)
            self._centers_xyz = out
        return self._centers_xyz

    @property
    def centers_lonlat(self) -> tuple[np.ndarray, np.ndarray]:
        """Longitude/latitude (radians) of element centers (read-only)."""
        if self._centers_lonlat is None:
            lon, lat = sphere_to_lonlat(self.centers_xyz)
            lon.setflags(write=False)
            lat.setflags(write=False)
            self._centers_lonlat = (lon, lat)
        return self._centers_lonlat

    @property
    def center_lat_trig(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sin(lat), cos(lat))`` of element-center latitudes (read-only)."""
        if self._center_lat_trig is None:
            _, lat = self.centers_lonlat
            sin_lat, cos_lat = np.sin(lat), np.cos(lat)
            sin_lat.setflags(write=False)
            cos_lat.setflags(write=False)
            self._center_lat_trig = (sin_lat, cos_lat)
        return self._center_lat_trig

    def element_areas(self) -> np.ndarray:
        """Spherical area (steradians) of each element.

        Computed as the solid angle of the spherical quadrilateral
        spanned by the projected corner nodes, via the Van
        Oosterom-Strackee triangle formula on the two triangles of the
        quad.  Sums to ``4 * pi`` over the mesh (tested).
        """
        ne = self.ne
        scaled = lattice_coords(self._node_keys, ne).astype(np.float64) / ne
        if self.projection == "equiangular":
            # Node coordinates are linear on the cube; re-warp the two
            # in-face components so areas match the equiangular grid.
            # The face-normal component has |c| == 1; warp the others.
            warped = np.tan(scaled * (np.pi / 4.0))
            on_axis = np.abs(np.abs(scaled) - 1.0) < 1e-12
            scaled = np.where(on_axis, scaled, warped)
        xyz = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
        quads = xyz[self.element_nodes]  # (nelem, 4, 3)

        def tri_solid_angle(a, b, c):
            num = np.einsum("ij,ij->i", a, np.cross(b, c))
            d = (
                1.0
                + np.einsum("ij,ij->i", a, b)
                + np.einsum("ij,ij->i", b, c)
                + np.einsum("ij,ij->i", a, c)
            )
            return 2.0 * np.arctan2(np.abs(num), d)

        t1 = tri_solid_angle(quads[:, 0], quads[:, 1], quads[:, 2])
        t2 = tri_solid_angle(quads[:, 0], quads[:, 2], quads[:, 3])
        return t1 + t2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CubedSphereMesh(ne={self.ne}, nelem={self.nelem}, "
            f"projection={self.projection!r})"
        )


@lru_cache(maxsize=32)
def cubed_sphere_mesh(ne: int, projection: str = "equiangular") -> CubedSphereMesh:
    """Cached constructor for :class:`CubedSphereMesh`.

    Experiments and the partition service re-use the same handful of
    resolutions, so meshes — topology plus the lazily built geometry
    caches — are memoized (they are immutable after construction).
    """
    return CubedSphereMesh(ne, projection)
