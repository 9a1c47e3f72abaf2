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

Layout (:class:`repro.seam.dss.HaloLayout`, which also gives
:func:`repro.seam.dss.build_halo_schedule`): every rank's partial sums
are one segment of a single float64 buffer ordered by (rank, global
point), and every value sent is one entry of a single outbox ordered
by (src rank, dst rank, point).  A DSS is
then three whole-buffer passes (gather, exchange, scatter) with no loop
over ranks or rank pairs, each a compiled kernel
(``repro._kernels.c::pdss_gather``, ``pdss_exchange``,
``pdss_scatter``); the gather also forms the RK3 stage being projected
(:meth:`PartitionedDSS.apply_stage`), so a transport stage stores no
stage field.  Each pass adds in the order a rank-by-rank
execution would (each rank sums its elements in ascending order; a
shared point takes its own partial, then its co-owners' in ascending
source rank), so the result is bit-identical to it; the rank-by-rank
version is kept as a test oracle (``tests/seam/reference_parallel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._native import LIB, check
from ..partition.base import Partition
from ..telemetry import inc, span
from .dss import HaloLayout, PointMap, checked_point_map, float64_fields
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
    entry carries the partial of a source slot into a destination slot
    (all from the partition's :class:`repro.seam.dss.HaloLayout`).

    :meth:`apply_stage` (and :meth:`apply`, its stage 0) is three
    passes, each in a fixed order that matches a rank-by-rank execution
    bit for bit.  Each is a C kernel sharing one int64 plan of the
    constant layout:

    * gather — each slot starts at 0.0 and adds the weighted
      element-local values of its points in element order (so each
      slot sums its rank's elements in ascending order), each value
      formed from the stage's inputs as it is read;
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

    Raises:
        ValueError: ``partition`` or ``point_map`` is of another grid.
    """

    def __init__(
        self,
        geom: GridGeometry,
        partition: Partition,
        point_map: PointMap | None = None,
    ):
        self.geom = geom
        self.partition = partition
        self.point_map = checked_point_map(geom, point_map)
        self.nranks = partition.nparts
        self.local_mass = geom.local_mass
        self.accounting = ExchangeAccounting(nranks=self.nranks)
        layout = HaloLayout(self.point_map, partition)
        (
            self.slot_rank, self.slot_point, self.offsets, self._slot_of,
            self._recv_dst, self._recv_src, self.msg_src, self.msg_dst,
        ) = layout.slots()
        self.nslots = len(self.slot_rank)
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
        self._pairs = len(layout.runs)
        self._sent = np.bincount(layout.src_rank, minlength=self.nranks)
        #: ``(nslots,)`` assembled mass of every slot (equal on every
        #: co-owning rank after the exchange): the gather of a field of
        #: ones, each slot's local masses summed in element order.
        self.mass = self._exchange_into(
            np.bincount(self._slot_of, self._local_flat, self.nslots), count=False
        )
        self._plan[7] = self.mass.ctypes.data

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
        """Partitioned DSS projection of an element-wise field
        (:meth:`apply_stage` 0)."""
        return self.apply_stage(0, 0.0, field_, field_, field_)

    def apply_stage(
        self, stage: int, dt: float, q: np.ndarray, qk: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """Partitioned DSS projection of stage ``stage`` of an SSP-RK3 step.

        Numerically equal to :meth:`repro.seam.dss.DSSOperator.apply_stage`
        up to floating-point summation order (tested to 1e-12).  The
        gather forms the stage from ``(q, qk, r)`` point by point
        (:func:`repro.seam.dss.rk3_stage` has the formulas; stage 0 is
        ``q``), so the stage field is never stored.

        Args:
            stage: 0..3.
            dt: The step's time step.
            q, qk, r: ``(nelem, np, np)`` fields of any dtype that casts
                safely to float64: the step's start, the previous stage
                and the tendency at it.

        Returns:
            A new float64 array of ``q``'s shape.

        Raises:
            ValueError: ``stage`` is not 0..3, or a field is not of
                shape ``(nelem, np, np)``.
            TypeError: A dtype does not cast safely to float64 (complex
                values are never truncated).
        """
        q, qk, r = float64_fields(self.local_mass.shape, q, qk, r)
        with span("pdss_apply", "seam"):
            partials = np.empty(self.nslots)
            addrs = (a.ctypes.data for a in (q, qk, r, partials))
            check(LIB.pdss_gather(self._plan_a, stage, dt, *addrs))
            totals = self._exchange_into(partials)
            out = np.empty(q.shape)
            LIB.pdss_scatter(self._plan_a, totals.ctypes.data, out.ctypes.data)
        inc("pdss_applies")
        return out

    def is_continuous(self, field_: np.ndarray, atol: float = 1e-12) -> bool:
        """Continuity check (delegates to the global point map)."""
        return self.point_map.is_continuous(field_, atol)


class PartitionedTransportRun:
    """The transport solver executed under a domain decomposition.

    A :class:`repro.seam.transport.TransportSolver` whose DSS is a
    :class:`PartitionedDSS`, so every run carries exact message
    accounting; ``stable_dt``, ``step`` and ``run`` are the solver's.

    Args:
        geom: Grid geometry.
        wind_cart: Cartesian tangent wind at the GLL points.
        partition: Element-to-rank assignment.
    """

    def __init__(
        self, geom: GridGeometry, wind_cart: np.ndarray, partition: Partition
    ):
        self.pdss = PartitionedDSS(geom, partition)
        self._solver = TransportSolver(geom, wind_cart, dss=self.pdss)
        self.geom = geom
        self.partition = partition

    @property
    def accounting(self) -> ExchangeAccounting:
        return self.pdss.accounting

    def stable_dt(self, cfl: float = 0.5) -> float:
        return self._solver.stable_dt(cfl)

    def step(self, q: np.ndarray, dt: float) -> np.ndarray:
        return self._solver.step(q, dt)

    def run(self, q0: np.ndarray, t_end: float, cfl: float = 0.5) -> np.ndarray:
        return self._solver.run(q0, t_end, cfl)
