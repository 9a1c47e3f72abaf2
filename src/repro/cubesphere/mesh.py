"""The cubed-sphere element mesh: indexing, adjacency, geometry.

For partitioning purposes (paper Sec. 1) a spectral element is the
atomic unit: the mesh is the set of ``K = 6 * Ne * Ne`` quadrilateral
elements together with its neighbor structure.  Communication between
processors is determined by neighboring elements that share a boundary
(*edge neighbors*, ``np`` shared GLL points) or a single corner point
(*corner neighbors*, one shared point).

Both relations are columns of one closed-form ``(K, 8)`` table,
:func:`repro.cubesphere.topology.neighbor_table`: four edge neighbors,
then four corner neighbors, ``-1`` where there is none.  Cross-face
neighbors and the eight special cube corners — where only three
elements meet and an element has seven, not eight, neighbors — come
out of integer steps on the cube, with no sort between ``Ne`` and the
adjacency.
"""

from __future__ import annotations

import numpy as np

from ..memo import StageCache
from .projection import element_center_local, local_to_sphere, sphere_to_lonlat
from .topology import NUM_FACES, neighbor_table

__all__ = ["CubedSphereMesh", "cubed_sphere_mesh"]


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
        #: ``(nelem, 8)`` read-only neighbor table: edge neighbors in
        #: columns 0-3, corner neighbors in 4-7, ``-1`` where none.
        self.neighbors = neighbor_table(self.ne)
        self.neighbors.setflags(write=False)
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
    # Queries
    # ------------------------------------------------------------------
    def edge_neighbors(self, gid: int) -> np.ndarray:
        """Elements sharing a full edge with ``gid`` (always 4), sorted."""
        return np.sort(self.neighbors[gid, :4])

    def corner_neighbors(self, gid: int) -> np.ndarray:
        """Elements sharing exactly one corner point with ``gid``, sorted
        (4 for generic elements, 3 for the 24 cube-corner elements)."""
        row = self.neighbors[gid, 4:]
        return np.sort(row[row >= 0])

    def all_neighbors(self, gid: int) -> np.ndarray:
        """Union of edge and corner neighbors, sorted."""
        row = self.neighbors[gid]
        return np.sort(row[row >= 0])

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CubedSphereMesh(ne={self.ne}, nelem={self.nelem}, "
            f"projection={self.projection!r})"
        )


#: Meshes of this process, one per ``(ne, projection)``.
_MESH_MEMO = StageCache("mesh", maxsize=32)


def cubed_sphere_mesh(ne: int, projection: str = "equiangular") -> CubedSphereMesh:
    """Memoized constructor for :class:`CubedSphereMesh`.

    Experiments and the partition service re-use the same handful of
    resolutions, so meshes — topology plus the lazily built geometry
    caches — are kept in the process's ``mesh`` memo
    (:mod:`repro.memo`); they are immutable after construction.
    """
    ne = int(ne)
    return _MESH_MEMO.get_or_compute(
        (ne, projection), lambda: CubedSphereMesh(ne, projection)
    )
