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
then three whole-buffer NumPy passes (gather, exchange, scatter) with
no loop over ranks or rank pairs.  Each pass adds in the order a
rank-by-rank execution would (each rank sums its elements in ascending
order; a shared point takes its own partial, then its co-owners' in
ascending source rank), so the result is bit-identical to it; the
rank-by-rank version is kept as a test oracle
(``tests/seam/reference_parallel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    :meth:`apply` is three NumPy passes, each in a fixed order that
    matches a rank-by-rank execution bit for bit:

    * gather — weighted ``np.bincount`` of the element-local values
      into their slots, in element order (so each slot sums its rank's
      elements in ascending order);
    * exchange — one ``np.bincount`` over every slot followed by every
      message: a slot starts from its own partial, then adds the
      pre-exchange partials of its co-owners in ascending source rank
      (BSP semantics: all sends read the pre-exchange state);
    * scatter — each element-local point reads ``partial / mass`` of
      its slot, where ``mass`` is the assembled mass, completed once by
      the same exchange.

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
        #: co-owning rank after the exchange).
        self.mass = self._exchange_into(
            self._gather(self.local_mass.ravel()), count=False
        )

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
        src_rank, dst_rank = self.slot_rank[src], self.slot_rank[dst]
        order = np.lexsort((self.slot_point[src], dst_rank, src_rank))
        self.msg_src, self.msg_dst = src[order], dst[order]

        # Exchange index: every slot once, then every message's target.
        self._exchange_idx = np.concatenate([np.arange(self.nslots), self.msg_dst])
        # Accounting of one exchange, counted once here.
        pair = src_rank[order] * np.int64(self.nranks) + dst_rank[order]
        self._pairs = int(np.count_nonzero(np.diff(pair))) + 1 if len(pair) else 0
        self._sent = np.bincount(src_rank, minlength=self.nranks)

    def _gather(self, field_flat: np.ndarray) -> np.ndarray:
        """Rank-local partial sums of a flat element-local point field."""
        return np.bincount(self._slot_of, weights=field_flat, minlength=self.nslots)

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
        sent = np.concatenate([partials, partials[self.msg_src]])
        return np.bincount(self._exchange_idx, weights=sent, minlength=self.nslots)

    def apply(self, field_: np.ndarray) -> np.ndarray:
        """Partitioned DSS projection of an element-wise field.

        Numerically equal to :meth:`repro.seam.dss.DSSOperator.apply`
        up to floating-point summation order (tested to 1e-12).
        """
        with span("pdss_apply", "seam"):
            partials = self._gather((self.local_mass * field_).ravel())
            partials = self._exchange_into(partials)
            partials /= self.mass
            out = partials[self._slot_of].reshape(field_.shape)
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
