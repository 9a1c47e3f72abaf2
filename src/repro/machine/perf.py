"""Discrete performance model: partition + cost model -> time per step.

The quantity the paper plots is the sustained floating-point execution
rate of SEAM under different partitions.  Per timestep, each processor

1. computes the RHS for its local elements (flops / sustained rate) —
   load imbalance shows up here as the *maximum* over processors;
2. exchanges boundary-point partial sums with every neighboring
   processor, once per RK stage, over the network tier (intra- or
   inter-node) connecting the two ranks.  The messages are those SEAM
   sends: :func:`repro.seam.dss.build_halo_schedule`'s (src, dst) point
   counts of the partition's ``np``-point grid, each shared GLL point
   sent once to each co-owning rank.

The step time is the maximum over processors of compute + communication
(bulk-synchronous, no overlap — SEAM's halo exchange was blocking in
this era), and speedup / Gflops follow from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..memo import StageCache
from ..partition.base import Partition
from ..seam.cost import DEFAULT_COST_MODEL, SEAMCostModel
from ..seam.dss import PointMap, build_halo_schedule, build_point_map
from .spec import MachineSpec, P690_CLUSTER

__all__ = ["StepTiming", "PerformanceModel", "simulator_point_map"]

#: The simulator's point maps by ``(ne, npts)``: a sweep prices dozens
#: of partitions of one grid.  ``build_point_map`` itself stays
#: uncached, so a set-up timed from cleared caches builds its own.
_POINT_MAP_MEMO = StageCache("point_map", maxsize=4)


def simulator_point_map(ne: int, npts: int) -> PointMap:
    """The point map of the ``(ne, npts)`` grid, built once per process."""
    return _POINT_MAP_MEMO.get_or_compute(
        (ne, npts), lambda: build_point_map(ne, npts)
    )


@dataclass(frozen=True)
class StepTiming:
    """Per-timestep timing of one partitioned run.

    Attributes:
        nprocs: Processor count (``partition.nparts``).
        compute_s: ``(nprocs,)`` per-processor compute seconds.
        comm_s: ``(nprocs,)`` per-processor communication seconds.
        step_s: Wall-clock seconds per step (max over processors).
        total_flops: Useful flops per step over all processors.
    """

    nprocs: int
    compute_s: np.ndarray
    comm_s: np.ndarray
    step_s: float
    total_flops: float

    @property
    def sustained_flops(self) -> float:
        """Aggregate sustained flop rate (the paper's Figs. 9-10)."""
        return self.total_flops / self.step_s

    @property
    def compute_fraction(self) -> float:
        """Fraction of the critical path spent computing."""
        worst = int(np.argmax(self.compute_s + self.comm_s))
        return float(self.compute_s[worst] / self.step_s)


class PerformanceModel:
    """Simulates SEAM time-per-step for a partition on a machine.

    Args:
        machine: Cluster description (default: the paper's P690).
        cost: Per-element flop/byte model (default: SEAM defaults).
    """

    def __init__(
        self,
        machine: MachineSpec = P690_CLUSTER,
        cost: SEAMCostModel = DEFAULT_COST_MODEL,
    ):
        self.machine = machine
        self.cost = cost

    def halo_schedule(self, partition: Partition) -> dict[tuple[int, int], int]:
        """SEAM's ``(src, dst) -> points`` exchange under ``partition``.

        The grid is the cubed sphere of ``K = 6 ne^2`` elements
        (``K = partition.nvertices``) with ``self.cost.npts`` GLL points
        per element edge.

        Raises:
            ValueError: ``K`` is not ``6 ne^2`` for a whole ``ne >= 1``.
        """
        k = partition.nvertices
        ne = math.isqrt(k // 6)
        if ne < 1 or 6 * ne * ne != k:
            raise ValueError(f"K={k} elements is not a cubed sphere's 6*ne^2")
        return build_halo_schedule(simulator_point_map(ne, self.cost.npts), partition)

    def step_timing(self, partition: Partition) -> StepTiming:
        """Time one SEAM timestep under a partition.

        Args:
            partition: Assignment of the cubed sphere's elements to
                processors.

        Returns:
            The :class:`StepTiming`.

        Raises:
            ValueError: The job exceeds the machine, or the partition is
                not of a cubed sphere (see :meth:`halo_schedule`).
        """
        nprocs = partition.nparts
        machine = self.machine
        cost = self.cost
        if nprocs > machine.max_procs:
            raise ValueError(
                f"{nprocs} processors exceed the machine's "
                f"{machine.max_procs}-processor job limit"
            )
        nelemd = partition.part_sizes().astype(np.float64)
        compute = (
            nelemd * cost.flops_per_step_per_element() / machine.sustained_flops
        )
        bpp = cost.bytes_per_point()
        exchanges = cost.exchanges_per_step()
        comm_s = np.zeros(nprocs)
        for (src, dst), points in self.halo_schedule(partition).items():
            link = machine.link(src, dst)
            comm_s[src] += exchanges * link.message_time(points * bpp)
        step_s = float((compute + comm_s).max())
        total_flops = cost.step_flops(int(nelemd.sum()))
        return StepTiming(
            nprocs=nprocs,
            compute_s=compute,
            comm_s=comm_s,
            step_s=step_s,
            total_flops=total_flops,
        )

    def serial_step_time(self, nelem: int) -> float:
        """Single-processor step time (no communication)."""
        return self.cost.step_flops(nelem) / self.machine.sustained_flops

    def speedup(self, partition: Partition) -> float:
        """Speedup of a partitioned run over one processor."""
        timing = self.step_timing(partition)
        return self.serial_step_time(partition.nvertices) / timing.step_s
