"""Simulated distributed execution of the spectral-element solver.

SEAM runs as one MPI rank per processor, each owning the elements its
partition assigned, exchanging boundary-point partial sums at every
DSS.  This module executes the *same decomposition* deterministically
in one process, with explicit message buffers and byte accounting, so
a partitioned run can be

* verified against the serial solver (they agree to summation
  rounding; tested), and
* measured: the messages it sends are exactly what the machine model
  prices, closing the loop between the numerical substrate and the
  performance study.

Layout: every rank's partial sums are one segment of a single float64
buffer ordered by (rank, global point), and every message is one entry
of a single outbox ordered by (src rank, dst rank, point).  A DSS is
then three whole-buffer passes (gather, exchange, scatter) with no loop
over ranks or rank pairs, each a compiled kernel
(``repro._kernels.c::pdss_gather``, ``pdss_exchange``,
``pdss_scatter``).  Each pass adds in the order a rank-by-rank
execution would (each rank sums its elements in ascending order; a
shared point takes its own partial, then its co-owners' in ascending
source rank), so the result is bit-identical to it; the rank-by-rank
version is kept as a test oracle (``tests/seam/reference_parallel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._native import LIB
from ..partition.base import Partition
from ..telemetry import inc, span
from .dss import PointMap, build_point_map
from .element import GridGeometry
from .transport import TransportSolver

__all__ = ["ExchangeAccounting", "PartitionedDSS", "PartitionedTransportRun"]


@dataclass
class ExchangeAccounting:
    """Message statistics of a partitioned run.

    Attributes:
        exchanges: Number of DSS exchanges performed.
        messages: Total point-to-point messages sent.
        values: Total floating-point values moved.
        per_rank_sent: ``(nranks,)`` values sent by each rank.
    """

    nranks: int
    exchanges: int = 0
    messages: int = 0
    values: int = 0
    per_rank_sent: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.per_rank_sent is None:
            self.per_rank_sent = np.zeros(self.nranks, dtype=np.int64)

    def bytes_moved(self, bytes_per_value: int = 8) -> int:
        return self.values * bytes_per_value


class PartitionedDSS:
    """Direct stiffness summation over a domain decomposition.

    Each rank holds partial J-weighted sums for the global points its
    elements touch; shared points are completed by explicit messages
    between the ranks that co-own them.  All ranks' partials live in one
    rank-segmented float64 buffer: slot ``s`` is the pair
    ``(slot_rank[s], slot_point[s])``, slots sort by (rank, global
    point), and rank ``r`` owns ``[offsets[r], offsets[r + 1])``.
    Messages are one outbox sorted by (src rank, dst rank, point); each
    entry carries the partial of a source slot into a destination slot.

    :meth:`apply` is three passes, each in a fixed order that matches a
    rank-by-rank execution bit for bit.  Each is a C kernel sharing one
    int64 plan of the constant layout:

    * gather — each slot starts at 0.0 and adds the weighted
      element-local values of its points in element order (so each
      slot sums its rank's elements in ascending order);
    * exchange — a slot starts at 0.0, adds its own partial, then the
      pre-exchange partials of its co-owners in ascending source rank
      (BSP semantics: all sends read the pre-exchange state);
    * scatter — each element-local point reads ``partial / mass`` of
      its slot (a true division), where ``mass`` is the assembled mass,
      completed once by the same exchange.

    Args:
        geom: Grid geometry.
        partition: Element-to-rank assignment.
        point_map: Optional pre-built global point identification.
    """

    def __init__(
        self,
        geom: GridGeometry,
        partition: Partition,
        point_map: PointMap | None = None,
    ):
        if partition.nvertices != geom.nelem:
            raise ValueError("partition does not match the grid")
        self.geom = geom
        self.partition = partition
        self.point_map = point_map if point_map is not None else build_point_map(geom)
        self.nranks = partition.nparts
        self.local_mass = geom.local_mass
        self.accounting = ExchangeAccounting(nranks=self.nranks)
        self._build_layout()
        #: ``(nslots,)`` assembled mass of every slot (equal on every
        #: co-owning rank after the exchange): the gather of a field of
        #: ones weighs each point by its mass alone.
        self.mass = self._exchange_into(
            self._gather(np.ones(self.local_mass.shape)), count=False
        )
        self._plan[7] = self.mass.ctypes.data

    def _build_layout(self) -> None:
        ids = self.point_map.point_ids.reshape(self.geom.nelem, -1)
        npoints = np.int64(self.point_map.npoints)
        owner = np.asarray(self.partition.assignment, dtype=np.int64)
        keys = (owner[:, None] * npoints + ids).ravel()
        slot_keys, self._slot_of = np.unique(keys, return_inverse=True)
        self.nslots = len(slot_keys)
        self.slot_rank, self.slot_point = np.divmod(slot_keys, npoints)
        self.offsets = np.searchsorted(self.slot_rank, np.arange(self.nranks + 1))

        # Messages: every slot of a point shared by c ranks sends its
        # partial to the other c - 1 slots of that point.  Sorted by
        # point, the slots of one point are a run; pair each run
        # position with all c positions of its run, then drop self-pairs.
        by_point = np.argsort(self.slot_point, kind="stable")
        pts = self.slot_point[by_point]
        starts = np.flatnonzero(np.r_[True, pts[1:] != pts[:-1]])
        counts = np.diff(np.r_[starts, self.nslots])
        run_size = np.repeat(counts, counts)
        src = np.repeat(np.arange(self.nslots), run_size)
        nth = np.arange(len(src)) - np.repeat(np.cumsum(run_size) - run_size, run_size)
        dst = np.repeat(np.repeat(starts, counts), run_size) + nth
        src, dst = by_point[src], by_point[dst]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # The kernel's inbox is this list with the roles swapped.  Each
        # pair is in it both ways, and for each ``src`` slot its ``dst``
        # slots (so their ranks) ascend, so read as (receiver, sender)
        # it gives every slot its incoming messages in ascending source
        # rank, the order the exchange adds them.  No sort is needed.
        self._recv_dst, self._recv_src = src, dst
        src_rank, dst_rank = self.slot_rank[src], self.slot_rank[dst]
        order = np.lexsort((self.slot_point[src], dst_rank, src_rank))
        self.msg_src, self.msg_dst = src[order], dst[order]

        self._local_flat = np.ascontiguousarray(self.local_mass.ravel())
        # 8-slot kernel plan (see _kernels.c); the mass address is
        # filled in once the mass is assembled.  The referenced arrays
        # are pinned by the attributes above, so the addresses stay
        # valid.
        self._plan = np.array(
            [
                len(self._slot_of),
                self.nslots,
                self._slot_of.ctypes.data,
                self._local_flat.ctypes.data,
                len(self._recv_dst),
                self._recv_dst.ctypes.data,
                self._recv_src.ctypes.data,
                0,
            ],
            dtype=np.int64,
        )
        self._plan_a = int(self._plan.ctypes.data)
        # Accounting of one exchange, counted once here.
        pair = src_rank[order] * np.int64(self.nranks) + dst_rank[order]
        self._pairs = int(np.count_nonzero(np.diff(pair))) + 1 if len(pair) else 0
        self._sent = np.bincount(src_rank, minlength=self.nranks)

    def _gather(self, field_: np.ndarray) -> np.ndarray:
        """Rank-local partial sums of the mass-weighted point field."""
        flat = np.ascontiguousarray(field_, dtype=np.float64)
        partials = np.empty(self.nslots)
        LIB.pdss_gather(self._plan_a, flat.ctypes.data, partials.ctypes.data)
        return partials

    def _exchange_into(self, partials: np.ndarray, count: bool = True) -> np.ndarray:
        """Return ``partials`` with every message added into its target.

        Each slot sums its own partial first, then the pre-exchange
        partials its co-owners send, in ascending source rank.
        """
        if count:
            acct = self.accounting
            acct.exchanges += 1
            acct.messages += self._pairs
            acct.values += len(self.msg_src)
            acct.per_rank_sent += self._sent
        totals = np.empty(self.nslots)
        LIB.pdss_exchange(self._plan_a, partials.ctypes.data, totals.ctypes.data)
        return totals

    def apply(self, field_: np.ndarray) -> np.ndarray:
        """Partitioned DSS projection of an element-wise field.

        Numerically equal to :meth:`repro.seam.dss.DSSOperator.apply`
        up to floating-point summation order (tested to 1e-12).

        Args:
            field_: ``(nelem, np, np)`` point values of any dtype that
                casts safely to float64.

        Returns:
            A new float64 array of ``field_``'s shape.

        Raises:
            ValueError: ``field_`` is not of shape ``(nelem, np, np)``.
            TypeError: ``field_``'s dtype does not cast safely to
                float64 (complex values are never truncated).
        """
        if field_.shape != self.local_mass.shape:
            raise ValueError(
                f"field shape {field_.shape} is not {self.local_mass.shape}"
            )
        if not np.can_cast(field_.dtype, np.float64):
            raise TypeError(f"field dtype {field_.dtype} does not cast to float64")
        with span("pdss_apply", "seam"):
            totals = self._exchange_into(self._gather(field_))
            out = np.empty(field_.shape)
            LIB.pdss_scatter(self._plan_a, totals.ctypes.data, out.ctypes.data)
        inc("pdss_applies")
        return out

    def is_continuous(self, field_: np.ndarray, atol: float = 1e-12) -> bool:
        """Continuity check (delegates to the global point map)."""
        return self.point_map.is_continuous(field_, atol)


class PartitionedTransportRun:
    """The transport solver executed under a domain decomposition.

    Drop-in variant of :class:`repro.seam.transport.TransportSolver`
    whose DSS goes through :class:`PartitionedDSS`, so every run
    carries exact message accounting.

    Args:
        geom: Grid geometry.
        wind_cart: Cartesian tangent wind at the GLL points.
        partition: Element-to-rank assignment.
    """

    def __init__(
        self, geom: GridGeometry, wind_cart: np.ndarray, partition: Partition
    ):
        self.pdss = PartitionedDSS(geom, partition)
        # Reuse the serial solver's RHS machinery; only DSS differs.
        self._solver = TransportSolver(geom, wind_cart, dss=_NullDSS())
        self.geom = geom
        self.partition = partition

    @property
    def accounting(self) -> ExchangeAccounting:
        return self.pdss.accounting

    def stable_dt(self, cfl: float = 0.5) -> float:
        return self._solver.stable_dt(cfl)

    def step(self, q: np.ndarray, dt: float) -> np.ndarray:
        rhs = self._solver.rhs
        dss = self.pdss.apply
        q1 = dss(q + dt * rhs(q))
        q2 = dss(0.75 * q + 0.25 * (q1 + dt * rhs(q1)))
        return dss(q / 3.0 + 2.0 / 3.0 * (q2 + dt * rhs(q2)))

    def run(self, q0: np.ndarray, t_end: float, cfl: float = 0.5) -> np.ndarray:
        dt = self.stable_dt(cfl)
        nsteps = max(1, int(np.ceil(t_end / dt)))
        dt = t_end / nsteps
        q = self.pdss.apply(q0)
        for _ in range(nsteps):
            q = self.step(q, dt)
        return q


class _NullDSS:
    """Placeholder satisfying TransportSolver's dss attribute; the
    partitioned runner routes all projections through PartitionedDSS."""

    def apply(self, field_: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise RuntimeError("partitioned runs must use PartitionedDSS")
