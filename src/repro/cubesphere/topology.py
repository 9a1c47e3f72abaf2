"""Cube topology: face frames and exact lattice-point identification.

The cubed-sphere (paper Fig. 1) tiles the sphere with the gnomonic
image of the six faces of the circumscribing cube, each subdivided into
``Ne x Ne`` quadrilateral elements.  This module defines the six face
coordinate frames on the cube ``[-1, 1]^3`` and the *exact* (integer)
corner-node coordinates used to stitch faces together.

Face layout (equatorial belt 0-3, north 4, south 5)::

            +---+
            | 4 |
    +---+---+---+---+
    | 0 | 1 | 2 | 3 |
    +---+---+---+---+
            | 5 |

Each face has an outward normal ``n`` and right-handed in-face axes
``(ex, ey)`` with ``ex x ey = n``; local coordinates ``(a, b)`` in
``[-1, 1]^2`` map to the cube point ``n + a*ex + b*ey``.

Cross-face adjacency is *derived*, not hand-coded: face lattice points
are integer (scaled) so points on cube edges coincide exactly between
faces, and :func:`lattice_ids` numbers them with one int64 key sort —
mesh corner nodes at ``m = 1``, DSS points at ``m = np - 1``.  Two
elements are neighbors precisely when they share two (edge neighbor) or
one (corner neighbor) nodes, which gets the eight cube corners right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Face", "FACES", "NUM_FACES", "face_point", "corner_nodes_scaled",
           "lattice_ids", "lattice_coords"]

NUM_FACES = 6


@dataclass(frozen=True)
class Face:
    """One cube face frame.

    Attributes:
        index: Face id, 0-5.
        normal: Outward unit normal (components in {-1, 0, 1}).
        ex: In-face axis for the local x (``a``) coordinate.
        ey: In-face axis for the local y (``b``) coordinate.
    """

    index: int
    normal: tuple[int, int, int]
    ex: tuple[int, int, int]
    ey: tuple[int, int, int]

    def __post_init__(self) -> None:
        n = np.array(self.normal)
        x = np.array(self.ex)
        y = np.array(self.ey)
        if not np.array_equal(np.cross(x, y), n):
            raise ValueError(f"face {self.index}: ex x ey != normal")


#: The six faces.  Belt faces 0-3 march eastward (face 1 is 90E of
#: face 0, etc.); face 4 is the north cap, face 5 the south cap.
FACES: tuple[Face, ...] = (
    Face(0, (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    Face(1, (0, 1, 0), (-1, 0, 0), (0, 0, 1)),
    Face(2, (-1, 0, 0), (0, -1, 0), (0, 0, 1)),
    Face(3, (0, -1, 0), (1, 0, 0), (0, 0, 1)),
    Face(4, (0, 0, 1), (0, 1, 0), (-1, 0, 0)),
    Face(5, (0, 0, -1), (0, 1, 0), (1, 0, 0)),
)


def face_point(face: int, a, b) -> np.ndarray:
    """Cube-surface point(s) of local coordinates on a face.

    Args:
        face: Face index 0-5.
        a: Local x coordinate(s) in ``[-1, 1]`` (scalar or array).
        b: Local y coordinate(s) in ``[-1, 1]``.

    Returns:
        Array of shape ``(..., 3)`` of points on the cube surface.
    """
    f = FACES[face]
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = np.array(f.normal, dtype=np.float64)
    ex = np.array(f.ex, dtype=np.float64)
    ey = np.array(f.ey, dtype=np.float64)
    return (
        n
        + a[..., None] * ex
        + b[..., None] * ey
    )


def corner_nodes_scaled(face: int, ne: int) -> np.ndarray:
    """Integer corner-node coordinates of all elements of a face.

    Nodes are points of the ``(ne+1) x (ne+1)`` lattice of the face,
    expressed as integer 3-vectors scaled by ``ne`` (so the cube is
    ``[-ne, ne]^3``).  Because the scaling is exact, nodes shared
    between faces along cube edges have bitwise-identical coordinates,
    which is what :func:`lattice_ids` keys on.

    Args:
        face: Face index 0-5.
        ne: Elements per face edge.

    Returns:
        ``(ne + 1, ne + 1, 3)`` int64 array; entry ``[i, j]`` is the
        node at local lattice position ``(i, j)``, i.e. local
        coordinates ``(2*i/ne - 1, 2*j/ne - 1)``.
    """
    f = FACES[face]
    i = np.arange(ne + 1, dtype=np.int64)
    j = np.arange(ne + 1, dtype=np.int64)
    # Scaled local coordinates: a*ne = 2*i - ne in [-ne, ne].
    sa = (2 * i - ne)[:, None]
    sb = (2 * j - ne)[None, :]
    n = np.array(f.normal, dtype=np.int64) * ne
    ex = np.array(f.ex, dtype=np.int64)
    ey = np.array(f.ey, dtype=np.int64)
    nodes = (
        n[None, None, :]
        + sa[..., None] * ex[None, None, :]
        + sb[..., None] * ey[None, None, :]
    )
    return nodes


def lattice_ids(ne: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Global ids of the ``(m+1) x (m+1)`` lattice points of every element.

    Point ``(i, j)`` of element ``(face, ix, iy)`` is node
    ``(ix*m + i, iy*m + j)`` of the face lattice
    ``corner_nodes_scaled(face, ne*m)``.  Each node's integer xyz is one
    mixed-radix int64 key (x most significant), and ids number the
    distinct keys in ascending, i.e. row-lexicographic xyz, order.
    ``m = 1`` gives mesh corner nodes; ``m = np - 1`` the GLL points of
    the spectral element grid, which are symmetric in each element and
    so are identified across face edges exactly as lattice points are.

    Returns:
        ``(ids, keys)``: the ``(6*ne*ne, m+1, m+1)`` int64 ids, elements
        in gid order, and the sorted key of each id (``npoints`` long,
        decoded by :func:`lattice_coords`).
    """
    n = ne * m
    base = 2 * n + 1
    keys = np.empty((NUM_FACES, n + 1, n + 1), dtype=np.int64)
    for face in range(NUM_FACES):
        c = corner_nodes_scaled(face, n) + n
        keys[face] = (c[..., 0] * base + c[..., 1]) * base + c[..., 2]
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    inverse = inverse.reshape(keys.shape)
    node = np.arange(ne)[:, None] * m + np.arange(m + 1)  # (ix, i) -> lattice row
    face = np.arange(NUM_FACES)[:, None, None, None, None]
    # (face, iy, ix, i, j), i.e. gid-major.
    ids = inverse[face, node[None, None, :, :, None], node[None, :, None, None, :]]
    return ids.reshape(NUM_FACES * ne * ne, m + 1, m + 1), uniq


def lattice_coords(keys: np.ndarray, n: int) -> np.ndarray:
    """``(len(keys), 3)`` node xyz on ``[-n, n]^3`` of keys at ``n = ne*m``."""
    base = 2 * n + 1
    xy, z = np.divmod(keys, base)
    x, y = np.divmod(xy, base)
    return np.stack([x, y, z], axis=1) - n
