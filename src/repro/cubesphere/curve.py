"""A single continuous space-filling curve over the whole cubed-sphere.

Paper Section 3, Figure 6: the face-local curves are chained so that
"the beginning and end of the space-filling curve on each face [are]
aligned with the curves on adjoining faces", producing one continuous
curve that traverses all ``6 * Ne^2`` elements.

Because every face-local curve obeys the canonical contract (enter at
one corner cell, exit at an adjacent corner cell of the same side), a
global chaining is fully specified by (a) an ordering of the six faces
in which consecutive faces share a cube edge, and (b) one dihedral
orientation per face.  Rather than hand-transcribing the paper's
figure, the assignment is *searched* (:func:`find_face_chain`):
candidate chains and orientations are enumerated deterministically and
validated against the mesh's edge neighbors.  The corner-cell
alignment across a cube edge does not depend on ``Ne``, so the search
runs once, on a tiny mesh (:func:`face_chain`).

The chain and the face-local keys (:mod:`repro.sfc.keys`) then define
the whole curve through one function, :func:`element_keys`: element id
→ global curve position.  The partition path streams those keys;
:func:`build_curve` materializes a :class:`CubedSphereCurve` by keying
every element and inverting the permutation.  The forward construction
(each face's curve transformed into place, face after face) is kept
only as the test oracle in ``tests/cubesphere/reference_curve.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from ..memo import StageCache
from ..sfc.factorization import default_schedule, schedule_size
from ..sfc.keys import _face_keys_c, schedule_tables
from ..sfc.transforms import ALL_TRANSFORMS, Transform
from .mesh import CubedSphereMesh, cubed_sphere_mesh
from .topology import NUM_FACES

__all__ = [
    "CubedSphereCurve",
    "cubed_sphere_curve",
    "element_keys",
    "face_chain",
    "FaceChain",
    "find_face_chain",
]


@dataclass(frozen=True)
class FaceChain:
    """A validated face ordering + per-face orientation.

    Attributes:
        faces: The six face indices in traversal order.
        transforms: Dihedral orientation applied to the canonical
            face-local curve on each face (aligned with :attr:`faces`).
    """

    faces: tuple[int, ...]
    transforms: tuple[Transform, ...]


def _face_adjacency(mesh: CubedSphereMesh) -> set[tuple[int, int]]:
    """Pairs of faces sharing a cube edge, read off the edge neighbors."""
    ne2 = mesh.ne * mesh.ne
    fa = np.repeat(np.arange(NUM_FACES), 4 * ne2).tolist()
    fb = (mesh.neighbors[:, :4].ravel() // ne2).tolist()
    return {(min(a, b), max(a, b)) for a, b in zip(fa, fb) if a != b}


def _entry_exit_gids(
    mesh: CubedSphereMesh, face: int, tr: Transform
) -> tuple[int, int]:
    """Global ids of the first/last element of a face under ``tr``."""
    n = mesh.ne
    ex, ey = tr.apply(0, 0, n)
    qx, qy = tr.apply(n - 1, 0, n)
    return mesh.gid(face, int(ex), int(ey)), mesh.gid(face, int(qx), int(qy))


def find_face_chain(mesh: CubedSphereMesh) -> FaceChain:
    """Deterministically find a valid global chaining for a mesh.

    Enumerates face orderings (Hamiltonian paths of the face-adjacency
    graph, lexicographic order) and per-face orientations (fixed
    transform order) and returns the first assignment in which the exit
    element of each face is an edge neighbor of the entry element of
    the next face.

    Raises:
        RuntimeError: If no valid chaining exists (cannot happen for a
            cube; kept as a guard against topology regressions).
    """
    adjacent = _face_adjacency(mesh)

    def faces_adjacent(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in adjacent

    def elements_adjacent(a: int, b: int) -> bool:
        return b in mesh.neighbors[a, :4]

    for order in permutations(range(NUM_FACES)):
        if any(
            not faces_adjacent(order[i], order[i + 1])
            for i in range(NUM_FACES - 1)
        ):
            continue
        # Depth-first assignment of one transform per face with
        # entry/exit continuity pruning.
        chosen: list[Transform] = []

        def extend(i: int, prev_exit: int | None) -> bool:
            if i == NUM_FACES:
                return True
            for tr in ALL_TRANSFORMS:
                entry, exit_ = _entry_exit_gids(mesh, order[i], tr)
                if prev_exit is not None and not elements_adjacent(
                    prev_exit, entry
                ):
                    continue
                chosen.append(tr)
                if extend(i + 1, exit_):
                    return True
                chosen.pop()
            return False

        if extend(0, None):
            return FaceChain(faces=tuple(order), transforms=tuple(chosen))
    raise RuntimeError("no continuous face chaining found (topology bug?)")


@lru_cache(maxsize=1)
def face_chain() -> FaceChain:
    """The canonical face chain, independent of resolution.

    Entry/exit cells of a face-local curve are corner cells whose
    cross-edge alignment does not depend on ``Ne`` (the transforms act
    affinely in the face size), so the deterministic search returns the
    same chain for every ``ne >= 2`` — validated by
    ``tests/cubesphere/test_keys.py`` — and it can be computed once on
    a tiny mesh.  At ``ne = 1`` every transform fixes the single cell,
    so the canonical chain's *face order* (which the search also
    reproduces there) is all that matters and keys still match.
    """
    return find_face_chain(cubed_sphere_mesh(2))


@lru_cache(maxsize=1)
def _chain_key_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per-face decode tables for the canonical chain.

    Returns:
        ``(rank, coef)``: ``rank[face]`` is the face's position in the
        chain; ``coef[face]`` holds the face's *inverse* orientation as
        ``(mxx, mxy, myx, myy, xneg, yneg)`` — the signed-permutation
        matrix plus the flags marking which coordinates need the
        ``n - 1`` offset.
    """
    chain = face_chain()
    rank = np.empty(NUM_FACES, dtype=np.int64)
    coef = np.empty((NUM_FACES, 6), dtype=np.int64)
    for pos, (face, tr) in enumerate(zip(chain.faces, chain.transforms)):
        rank[face] = pos
        inv = tr.inverse()
        coef[face] = (
            inv.mxx, inv.mxy, inv.myx, inv.myy,
            1 if inv.mxx + inv.mxy < 0 else 0,
            1 if inv.myx + inv.myy < 0 else 0,
        )
    rank.setflags(write=False)
    coef.setflags(write=False)
    return rank, coef


def element_keys(
    ne: int,
    schedule: str | None = None,
    gids: np.ndarray | None = None,
) -> np.ndarray:
    """Global curve positions of elements, straight from their ids.

    The one definition of the global curve:
    ``cubed_sphere_curve(ne, schedule).position`` is these keys.  Computed
    by the fused ``sfc_face_keys`` kernel (:mod:`repro.sfc.keys`): no
    mesh, no materialized curve — one pass over the requested ids, so
    callers can stream a huge mesh in chunks with
    O(chunk) peak memory.

    Args:
        ne: Elements per cube-face edge (must be ``2^n * 3^m``).
        schedule: Face-local refinement schedule (coarsest first);
            defaults to the paper's Peano-first schedule.
        gids: Element ids to key (any shape); all elements when omitted.

    Returns:
        uint64 array of curve positions, same shape as ``gids``.

    Raises:
        ValueError: ``schedule`` does not generate size ``ne``, or an
            id lies outside ``[0, 6 ne^2)``.
    """
    if schedule is None:
        schedule = default_schedule(ne)
    elif schedule_size(schedule) != ne:
        raise ValueError(
            f"schedule {schedule!r} generates size {schedule_size(schedule)}, "
            f"mesh has ne={ne}"
        )
    n2 = ne * ne
    if gids is None:
        gids = np.arange(6 * n2, dtype=np.int64)
    else:
        gids = np.asarray(gids, dtype=np.int64)
        # The decode indexes per-face tables by ``gid // ne^2``: an id
        # off the mesh would read past them.
        if gids.size and not (0 <= gids.min() and gids.max() < 6 * n2):
            raise ValueError(f"element ids must lie in [0, {6 * n2}) for ne={ne}")
    shape = gids.shape
    flat = np.ascontiguousarray(gids).ravel()
    rank, coef = _chain_key_tables()
    keys = _face_keys_c(flat, ne, schedule_tables(schedule), rank, coef)
    return keys.reshape(shape)


@dataclass(frozen=True)
class CubedSphereCurve:
    """The global space-filling curve over a cubed-sphere mesh.

    Attributes:
        mesh: The underlying element mesh.
        schedule: Face-local refinement schedule used on every face.
        chain: The face ordering/orientations realizing continuity.
        order: ``(nelem,)`` int array; ``order[k]`` is the global
            element id visited at curve position ``k``.
        position: ``(nelem,)`` int array; ``position[gid]`` is the
            curve position of element ``gid`` (inverse of
            :attr:`order`).
    """

    mesh: CubedSphereMesh
    schedule: str
    chain: FaceChain
    order: np.ndarray
    position: np.ndarray

    def __post_init__(self) -> None:
        self.order.setflags(write=False)
        self.position.setflags(write=False)

    def __len__(self) -> int:
        return self.mesh.nelem

    def is_continuous(self) -> bool:
        """Whether consecutive elements are edge neighbors everywhere.

        True by construction; exposed for tests and sanity checks.
        """
        edge = self.mesh.neighbors[self.order[:-1], :4]
        return bool((edge == self.order[1:, None]).any(axis=1).all())


def build_curve(
    mesh: CubedSphereMesh, schedule: str | None = None
) -> CubedSphereCurve:
    """Construct the global curve for a mesh.

    The curve is the inverse of :func:`element_keys`: ``position`` is
    every element's key and ``order`` scatters each element to its
    position, along the canonical :func:`face_chain`.

    Args:
        mesh: Cubed-sphere mesh; ``mesh.ne`` must be of the form
            ``2^n * 3^m``.
        schedule: Face-local refinement schedule (coarsest first);
            defaults to the paper's Peano-first schedule for
            ``mesh.ne``.

    Returns:
        The validated :class:`CubedSphereCurve`.
    """
    if schedule is None:
        schedule = default_schedule(mesh.ne)
    # int32 halves the persistent curve memory whenever ids fit.
    dtype = np.int32 if mesh.nelem < 2**31 else np.int64
    position = element_keys(mesh.ne, schedule).astype(dtype)
    order = np.empty(mesh.nelem, dtype=dtype)
    order[position] = np.arange(mesh.nelem, dtype=dtype)
    return CubedSphereCurve(
        mesh=mesh, schedule=schedule, chain=face_chain(), order=order, position=position
    )


#: Materialized curves of this process, one per ``(ne, schedule, projection)``.
_CURVE_MEMO = StageCache("curve", maxsize=32)


def cubed_sphere_curve(
    ne: int, schedule: str | None = None, projection: str = "equiangular"
) -> CubedSphereCurve:
    """Memoized global curve for resolution ``ne``.

    See :func:`build_curve`; meshes and curves are memoized (the
    ``mesh`` and ``curve`` memos of :mod:`repro.memo`) because
    experiments sweep many processor counts over the same resolution.
    """
    ne = int(ne)
    if schedule is None:
        schedule = default_schedule(ne)
    return _CURVE_MEMO.get_or_compute(
        (ne, schedule, projection),
        lambda: build_curve(cubed_sphere_mesh(ne, projection), schedule),
    )
