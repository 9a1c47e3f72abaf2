"""Direct stiffness summation (DSS): C0 continuity across elements.

SEAM imposes ``C^0`` continuity on element boundaries by summing
J-weighted point values over all elements sharing each boundary point
and redistributing the average (a Galerkin projection onto the
continuous basis).  On a parallel machine the summation *is* the
communication: every boundary point shared by elements on different
processors costs one exchanged value per neighbor, which is exactly the
communication volume the partitioners fight over.

The global point identity map is topological, not geometric: GLL point
``(i, j)`` of element ``(face, ix, iy)`` is lattice point
``(ix*m + i, iy*m + j)`` of its face with ``m = np - 1``, and
:func:`repro.cubesphere.topology.lattice_ids` numbers the distinct
lattice points exactly in integers — the same ids the mesh uses for its
corner nodes at ``m = 1`` (multiplicities are validated: 1 interior,
2 edge, 3 at cube corners / 4 at regular corners — tested).

Batched layout: :class:`DSSOperator` works on the stacked
``(nelem, np, np[, comps...])`` representation end to end.  The scatter
runs through a fused C kernel (``repro._kernels.c::dss_apply``) when
available, else a weighted ``np.bincount`` per component — both
accumulate in ascending element-local point order, so results are
bit-identical to each other.  ``apply`` accepts trailing component
axes, projecting e.g. a ``(nelem, np, np, 3)`` velocity in one call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .._native import LIB
from ..cubesphere.topology import lattice_ids
from ..partition.base import Partition
from ..telemetry import inc, span
from .element import GridGeometry

__all__ = [
    "PointMap",
    "build_point_map",
    "DSSOperator",
    "shared_dss_operator",
    "clear_dss_memo",
    "dss_memo_stats",
    "build_halo_schedule",
    "exchange_schedule",
]


@dataclass(frozen=True)
class PointMap:
    """Global ids of every element-local GLL point.

    Attributes:
        point_ids: ``(nelem, np, np)`` int array of global point ids.
        npoints: Number of distinct global points.
        multiplicity: ``(npoints,)`` number of element-local copies of
            each global point.
    """

    point_ids: np.ndarray
    npoints: int
    multiplicity: np.ndarray

    def boundary_mask(self) -> np.ndarray:
        """``(nelem, np, np)`` bool mask of shared (multiplicity>1) points."""
        return self.multiplicity[self.point_ids] > 1

    def is_continuous(self, field: np.ndarray, atol: float = 1e-12) -> bool:
        """Whether all copies of every shared point agree within ``atol``."""
        ids = self.point_ids.ravel()
        vals = field.ravel()
        mx = np.full(self.npoints, -np.inf)
        mn = np.full(self.npoints, np.inf)
        np.maximum.at(mx, ids, vals)
        np.minimum.at(mn, ids, vals)
        return bool(np.all(mx - mn <= atol))


def build_point_map(geom: GridGeometry) -> PointMap:
    """Identify shared GLL points across the whole cubed-sphere grid."""
    point_ids, keys = lattice_ids(geom.mesh.ne, geom.npts - 1)
    npoints = int(keys.shape[0])
    multiplicity = np.bincount(point_ids.ravel(), minlength=npoints)
    return PointMap(point_ids=point_ids, npoints=npoints, multiplicity=multiplicity)


class DSSOperator:
    """Weighted direct stiffness summation over a grid.

    The projection of an element-wise field ``q`` is::

        q_c = scatter( gather_sum(J w q) / gather_sum(J w) )

    which leaves element-interior points untouched and replaces shared
    points by their mass-weighted average.

    The operator is batched: index arrays, the flat mass vector, the
    reciprocal global mass, and (when the C kernels are loaded) the
    ctypes pointers are all precomputed once, and :meth:`apply` handles
    any number of trailing component axes in a single fused
    scatter-average-gather pass.

    Args:
        geom: Grid geometry.
        point_map: Global point identification (built on demand).
    """

    def __init__(self, geom: GridGeometry, point_map: PointMap | None = None):
        self.geom = geom
        with span("dss_build", "seam", nelem=int(geom.nelem)):
            self.point_map = (
                point_map if point_map is not None else build_point_map(geom)
            )
            #: (nelem, np, np) J-weighted quadrature mass at each local point.
            self.local_mass = geom.local_mass
            ids = np.ascontiguousarray(self.point_map.point_ids.ravel())
            self._mass_flat = np.ascontiguousarray(self.local_mass.ravel())
            self.global_mass = np.bincount(
                ids, weights=self._mass_flat, minlength=self.point_map.npoints
            )
            self._n_local = int(ids.shape[0])
            # Boundary compaction: interior points (multiplicity 1) are
            # fixed points of the projection up to one rounding, so the
            # average only runs over the element-local copies of shared
            # points (~1/3 of all points at ne=3/np=8).  Copies are
            # stored segment-major — stably sorted by boundary point,
            # which keeps each point's copies in ascending element-local
            # order, i.e. the exact per-point accumulation order of the
            # historical np.add.at over all copies.
            bmask = self.point_map.multiplicity[ids] > 1
            bidx = np.flatnonzero(bmask)
            order = np.argsort(ids[bidx], kind="stable")
            self._bidx = np.ascontiguousarray(bidx[order])
            bpt, counts = np.unique(ids[self._bidx], return_counts=True)
            self._nb = int(self._bidx.shape[0])
            self._nbpoints = int(bpt.shape[0])
            self._bids = np.ascontiguousarray(
                np.repeat(np.arange(self._nbpoints), counts)
            )
            seg = np.zeros(self._nbpoints + 1, dtype=np.int64)
            np.cumsum(counts, out=seg[1:])
            self._seg = seg
            self._bmass = np.ascontiguousarray(self._mass_flat[self._bidx])
            self._inv_bgmass = 1.0 / self.global_mass[bpt]
            # Per-field-shape plan cache: (ncomp, num scratch, raw
            # scratch address), grown on demand.  Raw data addresses
            # skip ctypes pointer construction (~1us per array per
            # call) on the hot path.
            self._shapes: dict[tuple[int, ...], tuple[int, np.ndarray, int]] = {}
            self._addrs: dict[int, tuple[np.ndarray, int]] = {}
            # 7-slot kernel plan (sizes + raw data addresses, see
            # _kernels.c).  The referenced arrays are pinned by the
            # attributes above, so the addresses stay valid.
            self._plan = np.array(
                [
                    self._n_local,
                    self._nb,
                    self._nbpoints,
                    self._bidx.ctypes.data,
                    self._seg.ctypes.data,
                    self._bmass.ctypes.data,
                    self._inv_bgmass.ctypes.data,
                ],
                dtype=np.int64,
            )
            self._plan_a = int(self._plan.ctypes.data)

    def _prepare_shape(self, shape: tuple[int, ...]) -> tuple[int, np.ndarray, int]:
        shape3 = self.point_map.point_ids.shape
        if shape[:3] != shape3:
            raise ValueError(f"field shape {shape} does not start with {shape3}")
        ncomp = 1
        for extent in shape[3:]:
            ncomp *= int(extent)
        num = np.empty(self._nbpoints * ncomp)
        entry = (ncomp, num, int(num.ctypes.data))
        self._shapes[shape] = entry
        return entry

    def _addr(self, arr: np.ndarray) -> int:
        """Raw data address of ``arr``, memoized by object identity.

        The cached strong reference keeps the array (and thus its
        ``id``) alive, so a hit can never alias a different array.
        Solver buffers are reused every step, making this ~8x cheaper
        than ``arr.ctypes.data`` per call.
        """
        key = id(arr)
        entry = self._addrs.get(key)
        if entry is not None and entry[0] is arr:
            return entry[1]
        if len(self._addrs) > 16:
            self._addrs.clear()
        addr = int(arr.ctypes.data)
        self._addrs[key] = (arr, addr)
        return addr

    def apply(self, field: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Project an element-wise field onto the continuous space.

        Args:
            field: ``(nelem, np, np)`` point values, or
                ``(nelem, np, np, comps...)`` with any trailing
                component axes (all components project in one pass).
            out: Optional preallocated output of ``field``'s shape.

        Returns:
            Array of ``field``'s shape, continuous across elements
            (``out`` if given, else newly allocated).
        """
        entry = self._shapes.get(field.shape)
        if entry is None:
            entry = self._prepare_shape(field.shape)
        ncomp, num, num_a = entry
        if out is None:
            out = np.empty(field.shape)
        elif (
            out.shape != field.shape
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be C-contiguous float64 of shape {field.shape}, "
                f"got {out.dtype} {out.shape}"
            )
        if LIB is not None:
            flat = np.ascontiguousarray(field, dtype=np.float64)
            LIB.dss_apply(
                self._plan_a, ncomp, self._addr(flat), num_a, self._addr(out)
            )
            return out
        self._apply_numpy(field, out, ncomp, num)
        return out

    def _apply_numpy(
        self, field: np.ndarray, out: np.ndarray, ncomp: int, num: np.ndarray
    ) -> None:
        """Pure-numpy fallback, bit-identical to the C kernel.

        Same structure: interior points copy through; boundary copies
        scatter via weighted ``np.bincount`` (which accumulates in
        ascending index order, exactly like the kernel's loop and the
        historical ``np.add.at``), scale by the reciprocal boundary
        mass, and gather back.
        """
        np.copyto(out, field)
        if not self._nb:
            return
        if ncomp == 1:
            flat = field.reshape(-1)
            weighted = self._bmass * flat[self._bidx]
            np.multiply(
                np.bincount(self._bids, weights=weighted, minlength=self._nbpoints),
                self._inv_bgmass,
                out=num,
            )
            out.reshape(-1)[self._bidx] = num[self._bids]
            return
        flat = field.reshape(self._n_local, ncomp)
        weighted = self._bmass[:, None] * flat[self._bidx]
        num2 = num.reshape(self._nbpoints, ncomp)
        for c in range(ncomp):
            num2[:, c] = np.bincount(
                self._bids, weights=weighted[:, c], minlength=self._nbpoints
            )
        np.multiply(num2, self._inv_bgmass[:, None], out=num2)
        out.reshape(self._n_local, ncomp)[self._bidx] = num2[self._bids]

    def is_continuous(self, field: np.ndarray, atol: float = 1e-12) -> bool:
        """Whether all copies of every shared point agree within ``atol``."""
        return self.point_map.is_continuous(field, atol)

    def integrate(self, field: np.ndarray) -> float:
        """Global quadrature integral of an element-wise field."""
        return float((self.local_mass * field).sum())


class _DSSMemo:
    """Per-geometry DSS operator memo (mirrors the pipeline stage memo).

    ``ShallowWaterSolver`` and ``TransportSolver`` each build a
    ``DSSOperator`` (and thus a point map) when none is passed; solvers
    at the same resolution now share one operator instead.  Keyed by
    ``(ne, npts)`` with an identity check on the geometry object, so a
    rebuilt geometry (e.g. after ``clear_geometry_cache``) never pairs
    with a stale operator.
    """

    def __init__(self, maxsize: int = 8) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple[int, int], DSSOperator] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get_or_build(self, geom: GridGeometry) -> DSSOperator:
        key = (geom.mesh.ne, geom.npts)
        op = self._entries.get(key)
        if op is not None and op.geom is geom:
            self._entries.move_to_end(key)
            self.hits += 1
            inc("dss_memo_total", outcome="hit")
            return op
        self.misses += 1
        inc("dss_memo_total", outcome="miss")
        op = DSSOperator(geom)
        self._entries[key] = op
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return op

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_DSS_MEMO = _DSSMemo(maxsize=8)


def shared_dss_operator(geom: GridGeometry) -> DSSOperator:
    """A :class:`DSSOperator` for ``geom``, shared across solvers.

    Returns the memoized operator when ``geom`` is the same object as
    the one the cached operator was built for; otherwise builds (and
    memoizes) a fresh one.
    """
    return _DSS_MEMO.get_or_build(geom)


def dss_memo_stats() -> dict[str, int]:
    """Hit/miss counts of the shared DSS operator memo."""
    return _DSS_MEMO.stats()


def clear_dss_memo() -> None:
    """Drop all memoized DSS operators and reset the counters."""
    _DSS_MEMO.clear()


def _owner_groups(
    point_map: PointMap, partition: Partition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point owner groups as flat run-encoded arrays.

    Returns ``(prt, starts, counts)``: ``prt`` lists the owning parts of
    every global point, grouped by point in ascending (point, part)
    order; group ``g`` occupies ``prt[starts[g] : starts[g] + counts[g]]``.
    """
    nelem, npts, _ = point_map.point_ids.shape
    if partition.nvertices != nelem:
        raise ValueError("partition size does not match grid")
    ids = point_map.point_ids.reshape(nelem, -1)
    owner = np.repeat(partition.assignment, ids.shape[1])
    # Unique (point, part) pairs: a processor contributes one partial
    # sum per shared point regardless of how many local copies it has.
    # (sort + run-mask, which benchmarks far faster than np.unique here)
    key = np.sort(ids.ravel() * np.int64(partition.nparts) + owner)
    uniq = key[np.r_[True, key[1:] != key[:-1]]]
    pts = uniq // partition.nparts
    prt = uniq % partition.nparts
    starts = np.flatnonzero(np.r_[True, pts[1:] != pts[:-1]])
    counts = np.diff(np.r_[starts, len(pts)])
    return prt, starts, counts


def ordered_pair_expansion(
    prt: np.ndarray, starts: np.ndarray, counts: np.ndarray, nparts: int
) -> np.ndarray:
    """All ordered owner pairs ``(a, b)``, ``a != b``, of shared groups.

    Groups are expanded size-class by size-class (owner counts are
    bounded by the point multiplicity, ≤4 on a cubed sphere, so this is
    a handful of vectorized passes).  Returns encoded ``a * nparts + b``
    keys, one entry per (point, ordered pair).
    """
    pair_keys: list[np.ndarray] = []
    for size in np.unique(counts).tolist():
        if size < 2:
            continue
        group_starts = starts[counts == size]
        members = prt[group_starts[:, None] + np.arange(size)]
        a = np.repeat(members, size, axis=1)
        b = np.tile(members, (1, size))
        offdiag = a != b
        pair_keys.append(a[offdiag] * np.int64(nparts) + b[offdiag])
    if not pair_keys:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pair_keys)


def build_halo_schedule(
    point_map: PointMap, partition: Partition
) -> dict[tuple[int, int], int]:
    """Boundary-point exchange counts implied by a partition.

    For every global point shared between processors, each owning
    processor must receive the partial sums of every *other* owning
    processor.  The returned schedule counts, for each ordered pair
    ``(src, dst)``, how many point values ``src`` sends to ``dst`` per
    DSS application — the exact communication the performance model
    charges for.

    The whole construction is vectorized: one ``np.unique`` collapses
    element-local copies to (point, part) pairs, run-length grouping
    finds each point's owner set, and the ordered-pair expansion plus a
    final counting ``np.unique`` replace the historical quadratic
    Python scan (identical counts; tested against goldens).

    Returns:
        Dict ``(src, dst) -> number of point values``.
    """
    nparts = partition.nparts
    with span("halo", "seam", nparts=int(nparts)):
        schedule = _halo_schedule(point_map, partition, nparts)
    inc("halo_schedules_built")
    inc("halo_schedule_pairs", len(schedule))
    return schedule


def _halo_schedule(
    point_map: PointMap, partition: Partition, nparts: int
) -> dict[tuple[int, int], int]:
    prt, starts, counts = _owner_groups(point_map, partition)
    pair_keys = ordered_pair_expansion(prt, starts, counts, nparts)
    if not len(pair_keys):
        return {}
    pair_keys.sort()
    keep = np.flatnonzero(np.r_[True, pair_keys[1:] != pair_keys[:-1]])
    tallies = np.diff(np.r_[keep, len(pair_keys)])
    pairs = pair_keys[keep]
    return dict(
        zip(
            zip((pairs // nparts).tolist(), (pairs % nparts).tolist()),
            tallies.tolist(),
        )
    )


#: Historical name, kept for callers of the pre-kernelized API.
exchange_schedule = build_halo_schedule
