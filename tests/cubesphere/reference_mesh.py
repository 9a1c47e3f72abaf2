"""Reference mesh topology: the row-unique node and dict-loop adjacency builders.

This is the historical construction of ``CubedSphereMesh``'s topology,
kept as the oracle for :func:`repro.cubesphere.topology.lattice_ids` and
:func:`repro.cubesphere.topology.neighbor_table`: corner nodes are
deduplicated by ``np.unique(axis=0)`` over integer xyz rows, and
neighbors are found by counting, in a Python dict, the nodes each pair
of elements shares.  The lattice ids, the table's rows and
``mesh_graph``'s CSR must reproduce its arrays bit for bit
(``tests/cubesphere/test_mesh.py::TestLatticeOracle``).

:func:`exact_element_areas` is the exact spherical area of every
element, the oracle of the SE grid's quadrature areas
(``tests/seam/test_element.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cubesphere.topology import NUM_FACES, corner_nodes_scaled


def reference_nodes(ne: int) -> tuple[np.ndarray, int, np.ndarray]:
    """``(element_nodes, nnodes, node_coords_scaled)`` of the Ne mesh."""
    nelem = NUM_FACES * ne * ne
    # Corner order: (ix,iy) -> nodes (i,j),(i+1,j),(i+1,j+1),(i,j+1).
    all_corners = np.empty((nelem, 4, 3), dtype=np.int64)
    for face in range(NUM_FACES):
        nodes = corner_nodes_scaled(face, ne)  # (ne+1, ne+1, 3)
        ix, iy = np.meshgrid(np.arange(ne), np.arange(ne), indexing="ij")
        i = ix.ravel()
        j = iy.ravel()
        g = face * ne * ne + j * ne + i
        all_corners[g, 0] = nodes[i, j]
        all_corners[g, 1] = nodes[i + 1, j]
        all_corners[g, 2] = nodes[i + 1, j + 1]
        all_corners[g, 3] = nodes[i, j + 1]
    flat = all_corners.reshape(-1, 3)
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    return inverse.reshape(nelem, 4), int(uniq.shape[0]), uniq


def reference_adjacency(
    element_nodes: np.ndarray, nnodes: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Edge and corner ``(indptr, indices)`` CSR arrays from shared nodes."""
    nelem = element_nodes.shape[0]
    order = np.argsort(element_nodes.ravel(), kind="stable")
    elems_sorted = order // 4
    node_ids = element_nodes.ravel()[order]
    starts = np.searchsorted(node_ids, np.arange(nnodes))
    ends = np.searchsorted(node_ids, np.arange(nnodes), side="right")
    shared: dict[tuple[int, int], int] = {}
    for nid in range(nnodes):
        members = elems_sorted[starts[nid] : ends[nid]]
        m = len(members)
        for a in range(m):
            ea = members[a]
            for b in range(a + 1, m):
                eb = members[b]
                key = (ea, eb) if ea < eb else (eb, ea)
                shared[key] = shared.get(key, 0) + 1
    edge_pairs = []
    corner_pairs = []
    for (ea, eb), cnt in shared.items():
        if cnt >= 2:
            edge_pairs.append((ea, eb))
        else:
            corner_pairs.append((ea, eb))
    return _to_csr(edge_pairs, nelem), _to_csr(corner_pairs, nelem)


def _to_csr(
    pairs: list[tuple[int, int]], nelem: int
) -> tuple[np.ndarray, np.ndarray]:
    if pairs:
        arr = np.array(pairs, dtype=np.int64)
        both = np.concatenate([arr, arr[:, ::-1]], axis=0)
    else:
        both = np.empty((0, 2), dtype=np.int64)
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    indptr = np.searchsorted(
        both[:, 0], np.arange(nelem + 1), side="left"
    ).astype(np.int64)
    return indptr, both[:, 1].copy()


def lattice_coords(keys: np.ndarray, n: int) -> np.ndarray:
    """``(len(keys), 3)`` node xyz on ``[-n, n]^3`` of ``lattice_ids`` keys
    at ``n = ne*m``."""
    base = 2 * n + 1
    xy, z = np.divmod(keys, base)
    x, y = np.divmod(xy, base)
    return np.stack([x, y, z], axis=1) - n


def exact_element_areas(mesh) -> np.ndarray:
    """Spherical area (steradians) of each element of ``mesh``.

    Computed as the solid angle of the spherical quadrilateral spanned
    by the projected corner nodes, via the Van Oosterom-Strackee
    triangle formula on the two triangles of the quad.  Sums to
    ``4 * pi`` over the mesh (tested).
    """
    ne = mesh.ne
    nodes = np.stack([corner_nodes_scaled(f, ne) for f in range(NUM_FACES)])
    scaled = nodes.astype(np.float64) / ne
    if mesh.projection == "equiangular":
        # Node coordinates are linear on the cube; re-warp the two
        # in-face components so areas match the equiangular grid.
        # The face-normal component has |c| == 1; warp the others.
        warped = np.tan(scaled * (np.pi / 4.0))
        on_axis = np.abs(np.abs(scaled) - 1.0) < 1e-12
        scaled = np.where(on_axis, scaled, warped)
    xyz = scaled / np.linalg.norm(scaled, axis=-1, keepdims=True)
    # Corners CCW in the face frame, (i,j),(i+1,j),(i+1,j+1),(i,j+1),
    # of elements in gid order (face, iy, ix).
    ix = np.arange(ne)[None, :]
    quads = np.stack(
        [xyz[:, ix + di, ix.T + dj] for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))],
        axis=3,
    ).reshape(mesh.nelem, 4, 3)

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
