"""Cube topology: face frames, exact lattice points and the neighbour table.

The cubed-sphere (paper Fig. 1) tiles the sphere with the gnomonic
image of the six faces of the circumscribing cube, each subdivided into
``Ne x Ne`` quadrilateral elements.  This module defines the six face
coordinate frames on the cube ``[-1, 1]^3``, the *exact* (integer)
lattice-point coordinates used to stitch faces together, and the
element adjacency.

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

Adjacency has a closed form, :func:`neighbor_table`: an interior
element's eight neighbours are ``gid + dx + ne*dy``, and only the ring
elements of a face are stepped in integer cube coordinates, where
leaving the face through one cube edge lands on the adjacent face and
leaving through two (a cube corner) finds no neighbour.
:func:`lattice_ids` numbers shared lattice points across faces with one
int64 key sort, for the DSS points of the spectral element grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Face", "FACES", "NUM_FACES", "NEIGHBOR_STEPS", "face_point",
           "corner_nodes_scaled", "lattice_ids", "neighbor_table"]

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
    ``m = 1`` gives element corner nodes; ``m = np - 1`` the GLL points of
    the spectral element grid, which are symmetric in each element and
    so are identified across face edges exactly as lattice points are.

    Returns:
        ``(ids, keys)``: the ``(6*ne*ne, m+1, m+1)`` int64 ids, elements
        in gid order, and the sorted key of each id (``npoints`` long).
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


#: Face-local steps ``(dx, dy)`` of :func:`neighbor_table`'s columns:
#: the four edge neighbours (-x, +x, -y, +y), then the four diagonals.
NEIGHBOR_STEPS = np.array(
    [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, -1), (-1, 1), (1, 1)],
    dtype=np.int64,
)
NEIGHBOR_STEPS.setflags(write=False)


def neighbor_table(ne: int) -> np.ndarray:
    """The eight neighbours of every element, in closed form.

    Column ``c`` of row ``gid`` is the element one face-local step
    ``NEIGHBOR_STEPS[c]`` away: columns 0-3 are the edge neighbours,
    4-7 the corner neighbours, and ``-1`` marks a step across a cube
    corner, where only three elements meet.  So the 24 cube-corner
    elements have 7 neighbours and the rest 8 (at ``ne = 1`` every
    diagonal is ``-1``).

    Returns:
        ``(6*ne*ne, 8)`` int64 element ids.
    """
    normal, ex, ey = np.array([(f.normal, f.ex, f.ey) for f in FACES]).transpose(1, 0, 2)
    dx, dy = NEIGHBOR_STEPS.T
    gid = np.arange(NUM_FACES * ne * ne, dtype=np.int64).reshape(NUM_FACES, ne, ne)
    table = np.empty((NUM_FACES, ne, ne, 8), dtype=np.int64)
    table[:, 1:-1, 1:-1] = gid[:, 1:-1, 1:-1, None] + dx + ne * dy

    # Ring elements: step the centre ne*n + a*ex + b*ey, a = 2*ix + 1 - ne
    # and b = 2*iy + 1 - ne, on the cube [-ne, ne]^3.  A coordinate that
    # leaves is clamped and its excess taken off the normal one, which
    # lands on the centre across the cube edge.
    ring = np.ones((NUM_FACES, ne, ne), dtype=bool)
    ring[:, 1:-1, 1:-1] = False
    face, iy, ix = np.nonzero(ring)
    n, x, y = normal[face, None], ex[face, None], ey[face, None]
    a = (2 * ix + 1 - ne)[:, None, None] + 2 * dx[:, None]
    b = (2 * iy + 1 - ne)[:, None, None] + 2 * dy[:, None]
    step = ne * n + a * x + b * y  # (ring, 8, 3)
    excess = np.maximum(np.abs(step) - ne, 0)
    found = np.count_nonzero(excess, axis=-1) < 2  # two leave: a cube corner
    step = np.clip(step, -ne, ne) - excess.sum(axis=-1, keepdims=True) * n
    step = step[found]
    # The one coordinate of a centre on the cube surface is its face's
    # normal, coded as ``normal @ (1, 2, 3)`` in ``[-3, 3]``.
    code = np.array([1, 2, 3], dtype=np.int64)
    face_of = np.empty(7, dtype=np.int64)
    face_of[normal @ code + 3] = np.arange(NUM_FACES)
    to = face_of[np.where(np.abs(step) == ne, np.sign(step), 0) @ code + 3]
    to_x = (np.einsum("rj,rj->r", step, ex[to]) + ne - 1) // 2
    to_y = (np.einsum("rj,rj->r", step, ey[to]) + ne - 1) // 2
    nbr = np.full(found.shape, -1, dtype=np.int64)
    nbr[found] = to * ne * ne + to_y * ne + to_x
    table[face, iy, ix] = nbr
    return table.reshape(-1, 8)
