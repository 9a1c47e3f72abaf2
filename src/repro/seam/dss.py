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
lattice points exactly in integers (``m = 1`` numbers the element
corner nodes; multiplicities are validated: 1 interior, 2 edge, 3 at
cube corners / 4 at regular corners — tested).

Batched layout: :class:`DSSOperator` works on the stacked
``(nelem, np, np[, comps...])`` representation end to end.  The scatter
runs through a fused C kernel (``repro._kernels.c::dss_apply``) that
accumulates in ascending element-local point order, bit-identical to a
weighted ``np.bincount`` per component (its oracle in
``tests/seam/reference_dss.py``).  ``apply`` accepts trailing component
axes, projecting e.g. a ``(nelem, np, np, 3)`` velocity in one call.

Partitioned layout: one :class:`HaloLayout` per partition gives both
:func:`build_halo_schedule` (its outbox's run lengths) and
:class:`repro.seam.PartitionedDSS` (its slots, inbox and outbox).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .._native import LIB, check
from ..cubesphere.topology import lattice_ids
from ..memo import StageCache
from ..partition.base import Partition
from ..telemetry import inc, span
from .element import GridGeometry

__all__ = [
    "PointMap",
    "build_point_map",
    "DSSOperator",
    "shared_dss_operator",
    "clear_dss_memo",
    "HaloLayout",
    "build_halo_schedule",
    "rk3_stage",
]


def rk3_stage(stage: int, dt: float, q, qk, r, out: np.ndarray) -> np.ndarray:
    """Write stage ``stage`` of an SSP-RK3 step into ``out`` and return it.

    Stage 0 is ``q``, 1 ``q + dt*r``, 2 ``0.75*q + 0.25*(qk + dt*r)`` and
    3 ``q/3 + 2/3*(qk + dt*r)``, rounded as those NumPy expressions
    (``repro._kernels.c::rk3_combine``).  ``out`` may alias ``qk`` or
    ``r``.

    Raises:
        ValueError: ``stage`` is not 0, 1, 2 or 3, or the arrays are not
            C-contiguous float64 of one size with ``out`` writable.
    """
    if not out.flags.writeable or any(
        a.dtype != np.float64 or not a.flags.c_contiguous or a.size != out.size
        for a in (q, qk, r, out)
    ):
        raise ValueError("rk3_stage needs C-contiguous float64 arrays of one size")
    addrs = (a.ctypes.data for a in (q, qk, r, out))
    check(LIB.rk3_stage(out.size, stage, dt, *addrs))
    return out


def _address(arr: np.ndarray) -> int:
    """Raw data address of a C-contiguous array, holding no reference.

    A writable array's address is read through a ctypes view of its
    buffer, about 3x cheaper than ``arr.ctypes.data`` (~0.4 vs ~1.3 us);
    a read-only or empty array falls back to ``arr.ctypes.data``.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


def float64_fields(shape: tuple[int, ...], *fields: np.ndarray) -> list[np.ndarray]:
    """``fields`` as C-contiguous float64 arrays, each of ``shape``.

    Raises:
        ValueError: A field is not of ``shape``.
        TypeError: A field's dtype does not cast safely to float64
            (complex values are never truncated).
    """
    for f in fields:
        if f.shape != shape:
            raise ValueError(f"field shape {f.shape} is not {shape}")
        if f.dtype != np.float64 and not np.can_cast(f.dtype, np.float64):
            raise TypeError(f"field dtype {f.dtype} does not cast to float64")
    return [np.ascontiguousarray(f, dtype=np.float64) for f in fields]


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


def build_point_map(ne: int, npts: int) -> PointMap:
    """Identify shared GLL points across the cubed-sphere grid of ``ne``
    elements per face edge and ``npts`` GLL points per element edge."""
    point_ids, keys = lattice_ids(ne, npts - 1)
    npoints = int(keys.shape[0])
    multiplicity = np.bincount(point_ids.ravel(), minlength=npoints)
    return PointMap(point_ids=point_ids, npoints=npoints, multiplicity=multiplicity)


def checked_point_map(geom: GridGeometry, point_map: PointMap | None) -> PointMap:
    """``point_map`` (refused if of another grid), or ``geom``'s own."""
    if point_map is None:
        return build_point_map(geom.mesh.ne, geom.npts)
    if point_map.point_ids.shape != geom.local_mass.shape:
        raise ValueError(
            f"point map of shape {point_map.point_ids.shape} does not match "
            f"the grid's points {geom.local_mass.shape}"
        )
    return point_map


class DSSOperator:
    """Weighted direct stiffness summation over a grid.

    The projection of an element-wise field ``q`` is::

        q_c = scatter( gather_sum(J w q) / gather_sum(J w) )

    which leaves element-interior points untouched and replaces shared
    points by their mass-weighted average.

    The operator is batched: index arrays, the flat mass vector, the
    reciprocal global mass, and the kernel plan of raw addresses are
    all precomputed once, and :meth:`apply` handles
    any number of trailing component axes in a single fused
    scatter-average-gather pass.

    Args:
        geom: Grid geometry.
        point_map: Global point identification (built on demand).

    Raises:
        ValueError: ``point_map`` is of another grid.
    """

    def __init__(self, geom: GridGeometry, point_map: PointMap | None = None):
        self.geom = geom
        with span("dss_build", "seam", nelem=int(geom.nelem)):
            self.point_map = checked_point_map(geom, point_map)
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
            seg = np.zeros(self._nbpoints + 1, dtype=np.int64)
            np.cumsum(counts, out=seg[1:])
            self._seg = seg
            self._bmass = np.ascontiguousarray(self._mass_flat[self._bidx])
            self._inv_bgmass = 1.0 / self.global_mass[bpt]
            # Per-field-shape plan cache: (ncomp, num scratch, raw
            # scratch address), grown on demand.
            self._shapes: dict[tuple[int, ...], tuple[int, np.ndarray, int]] = {}
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
        (flat,) = float64_fields(field.shape, field)
        entry = self._shapes.get(field.shape)
        if entry is None:
            entry = self._prepare_shape(field.shape)
        ncomp, _, num_a = entry
        if out is None:
            out = np.empty(field.shape)
        elif (
            out.shape != field.shape
            or out.dtype != np.float64
            or not (out.flags.c_contiguous and out.flags.writeable)
        ):
            raise ValueError(
                f"out must be writable C-contiguous float64 of shape "
                f"{field.shape}, got {out.dtype} {out.shape}"
            )
        LIB.dss_apply(self._plan_a, ncomp, _address(flat), num_a, _address(out))
        return out

    def apply_stage(
        self, stage: int, dt: float, q: np.ndarray, qk: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """Project stage ``stage`` of an SSP-RK3 step (see :func:`rk3_stage`).

        The stage is formed into a new array, which is then projected
        in place.

        Raises:
            ValueError: ``stage`` is not 0..3, or ``qk`` or ``r`` is not
                of ``q``'s shape, or ``q`` is not a field of the grid.
            TypeError: A dtype does not cast safely to float64.
        """
        q, qk, r = float64_fields(q.shape, q, qk, r)
        out = rk3_stage(stage, dt, q, qk, r, np.empty(q.shape))
        return self.apply(out, out=out)

    def is_continuous(self, field: np.ndarray, atol: float = 1e-12) -> bool:
        """Whether all copies of every shared point agree within ``atol``."""
        return self.point_map.is_continuous(field, atol)

    def integrate(self, field: np.ndarray) -> float:
        """Global quadrature integral of an element-wise field."""
        return float((self.local_mass * field).sum())


#: DSS operators of this process, one per geometry object.
_DSS_MEMO = StageCache("dss", maxsize=8)


def shared_dss_operator(geom: GridGeometry) -> DSSOperator:
    """A :class:`DSSOperator` for ``geom``, shared across solvers.

    ``ShallowWaterSolver`` and ``TransportSolver`` each take this
    operator when none is passed, so solvers at the same resolution
    share one.  The process's ``dss`` memo keys it by ``(ne, npts,
    id(geom))``: a rebuilt geometry (e.g. after
    ``clear_geometry_cache``) never pairs with a stale operator, and
    since the cached operator holds ``geom``, the id cannot be reused
    while its entry lives.
    """
    return _DSS_MEMO.get_or_compute(
        (geom.mesh.ne, geom.npts, id(geom)), lambda: DSSOperator(geom)
    )


def clear_dss_memo() -> None:
    """Drop all memoized DSS operators and reset the counters."""
    _DSS_MEMO.clear()


class HaloLayout:
    """The boundary exchange of a partition: slots, inbox and outbox.

    A rank holds one partial sum per global point its elements touch,
    the *slot* ``(rank, point)``; each slot of a point owned by two or
    more ranks sends its partial to the point's other slots.  Only those
    shared points are expanded, as ``(point, rank)`` pairs.  The outbox
    (``src_rank``, ``dst_rank``) lists every value sent, sorted by (src
    rank, dst rank, point); a message is one (src, dst) run of it.  Only
    :meth:`slots` builds the slots, so the halo schedule never pays for
    them.

    Raises:
        ValueError: ``partition`` is not of the grid's element count.
    """

    def __init__(self, point_map: PointMap, partition: Partition):
        nelem = point_map.point_ids.shape[0]
        if partition.nvertices != nelem:
            raise ValueError("partition size does not match grid")
        self.point_map = point_map
        self.nranks = nranks = int(partition.nparts)
        self._owner = np.asarray(partition.assignment, dtype=np.int64)
        ids = point_map.point_ids.reshape(nelem, -1)
        # Unique (point, rank) pairs of the points with several
        # element-local copies, sorted by (point, rank): a rank sends one
        # partial per shared point however many copies it holds.
        copies = point_map.multiplicity[ids] > 1
        owner = np.repeat(self._owner, np.count_nonzero(copies, axis=1))
        key = np.sort(ids[copies] * np.int64(nranks) + owner)
        key = key[np.r_[True, key[1:] != key[:-1]]]
        point = key // nranks
        rank = key - point * nranks
        starts = np.flatnonzero(np.r_[True, point[1:] != point[:-1]])
        counts = np.diff(np.r_[starts, len(point)])
        pair_rank = rank[np.repeat(counts > 1, counts)]
        counts = counts[counts > 1]
        starts = np.cumsum(counts) - counts
        # Pair each position of a point's run with every position of the
        # run, then drop self-pairs: one entry per value sent, ordered by
        # (point, rank of ``near``, rank of ``far``).
        run_size = np.repeat(counts, counts)
        near = np.repeat(np.arange(len(run_size)), run_size)
        first = np.cumsum(run_size) - run_size
        nth = np.arange(len(near)) - np.repeat(first, run_size)
        far = np.repeat(np.repeat(starts, counts), run_size) + nth
        off = near != far
        self._near, self._far = near[off], far[off]
        # Outbox: ``near`` sends to ``far``.  A stable sort by rank pair
        # keeps each pair's points ascending.
        near_rank, far_rank = pair_rank[self._near], pair_rank[self._far]
        pair = near_rank * np.int64(nranks) + far_rank
        self._outbox = np.argsort(pair, kind="stable")
        pair = pair[self._outbox]
        self.src_rank = pair // nranks
        self.dst_rank = pair - self.src_rank * nranks
        #: First outbox entry of every (src, dst) run: one per message.
        self.runs = np.flatnonzero(np.diff(pair, prepend=-1))

    def slots(self) -> tuple[np.ndarray, ...]:
        """The slot side of the layout, for :class:`repro.seam.PartitionedDSS`.

        Returns ``(rank, point, offsets, slot_of, recv_dst, recv_src,
        msg_src, msg_dst)``: the rank and global point of every slot,
        sorted by (rank, point); rank ``r``'s slots
        ``offsets[r]:offsets[r + 1]``; the slot of every element-local
        point; the inbox, where message ``m`` adds slot ``recv_src[m]``
        into ``recv_dst[m]``, each receiver's in ascending source rank;
        and the outbox ``msg_src -> msg_dst``.
        """
        ids = self.point_map.point_ids.reshape(len(self._owner), -1)
        npoints = np.int64(self.point_map.npoints)
        keys = (self._owner[:, None] * npoints + ids).ravel()
        by_key = np.argsort(keys, kind="stable")
        ordered = keys[by_key]
        new = np.r_[True, ordered[1:] != ordered[:-1]]
        slot_of = np.empty(len(keys), dtype=np.int64)
        slot_of[by_key] = np.cumsum(new) - 1
        slot_keys = ordered[new]
        rank = slot_keys // npoints
        point = slot_keys - rank * npoints
        # The slots of points on two or more ranks, reordered by (point,
        # rank), are the layout's pairs.
        pair_slot = np.flatnonzero(np.bincount(point)[point] > 1)
        pair_slot = pair_slot[np.argsort(point[pair_slot], kind="stable")]
        near, far = pair_slot[self._near], pair_slot[self._far]
        # Read the other way round, the messages give every slot its
        # incoming partials in ascending source rank: the inbox.
        offsets = np.searchsorted(rank, np.arange(self.nranks + 1))
        outbox = near[self._outbox], far[self._outbox]
        return rank, point, offsets, slot_of, near, far, *outbox


def build_halo_schedule(
    point_map: PointMap, partition: Partition
) -> dict[tuple[int, int], int]:
    """Boundary-point exchange counts implied by a partition.

    For every global point shared between processors, each owning
    processor must receive the partial sums of every *other* owning
    processor.  The returned schedule counts, for each ordered pair
    ``(src, dst)``, how many point values ``src`` sends to ``dst`` per
    DSS application: the (src, dst) run lengths of the
    :class:`HaloLayout` outbox that :class:`repro.seam.PartitionedDSS`
    sends.  The machine simulator (:class:`repro.machine.PerformanceModel`)
    prices exactly this schedule.

    Returns:
        Dict ``(src, dst) -> number of point values``, in ascending
        ``(src, dst)`` order.

    Raises:
        ValueError: ``partition`` is not of the grid's element count.
    """
    with span("halo", "seam", nparts=int(partition.nparts)):
        layout = HaloLayout(point_map, partition)
        first = layout.runs
        tallies = np.diff(np.r_[first, len(layout.src_rank)]).tolist()
        src, dst = layout.src_rank[first].tolist(), layout.dst_rank[first].tolist()
        schedule = dict(zip(zip(src, dst), tallies))
    inc("halo_schedules_built")
    inc("halo_schedule_pairs", len(schedule))
    return schedule
