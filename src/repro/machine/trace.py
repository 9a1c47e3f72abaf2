"""Per-rank execution timeline of one simulated timestep.

The step time of a bulk-synchronous SEAM step is the *maximum* over
processors of compute + communication; understanding *why* a partition
is slow means seeing which ranks sit on the critical path and whether
they are compute-bound (load imbalance) or waiting on messages
(communication imbalance / slow links).  This module renders that as a
textual Gantt chart from the performance model's per-rank numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..partition.base import Partition
from .perf import PerformanceModel, StepTiming

__all__ = ["RankSegment", "StepTrace", "trace_step"]


@dataclass(frozen=True)
class RankSegment:
    """One rank's timing breakdown.

    Attributes:
        rank: Processor id.
        compute_s: Seconds computing.
        comm_s: Seconds communicating.
        critical: Whether this rank sets the step time.
    """

    rank: int
    compute_s: float
    comm_s: float
    critical: bool

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s


@dataclass(frozen=True)
class StepTrace:
    """Timeline of one step across all ranks."""

    timing: StepTiming
    segments: tuple[RankSegment, ...]

    @property
    def critical_rank(self) -> int:
        return next(s.rank for s in self.segments if s.critical)

    def idle_fraction(self) -> float:
        """Mean fraction of the step each rank spends idle (waiting
        at the implicit barrier for the critical rank)."""
        step = self.timing.step_s
        if step == 0:
            return 0.0
        idle = [1.0 - s.total_s / step for s in self.segments]
        return float(np.mean(idle))

    def render(self, width: int = 60, max_ranks: int = 24) -> str:
        """ASCII Gantt chart: ``#`` compute, ``~`` communication.

        Ranks beyond ``max_ranks`` are elided around the critical rank
        so big runs stay readable.
        """
        step = self.timing.step_s
        segs = list(self.segments)
        if len(segs) > max_ranks:
            crit = self.critical_rank
            # Keep the slowest ranks plus an evenly-spaced sample.
            by_total = sorted(segs, key=lambda s: -s.total_s)[: max_ranks // 2]
            keep = {s.rank for s in by_total} | {crit}
            stride = max(1, len(segs) // (max_ranks - len(keep)))
            keep |= set(range(0, len(segs), stride))
            segs = [s for s in segs if s.rank in keep][:max_ranks]
        lines = [
            f"step = {step * 1e6:.0f} us; '#' compute, '~' comm; "
            f"critical rank = {self.critical_rank}"
        ]
        for s in segs:
            n_comp = int(round(width * s.compute_s / step)) if step else 0
            n_comm = int(round(width * s.comm_s / step)) if step else 0
            bar = "#" * n_comp + "~" * n_comm
            marker = " <== critical" if s.critical else ""
            lines.append(f"rank {s.rank:>4d} |{bar:<{width}s}|{marker}")
        if len(segs) < len(self.segments):
            lines.append(f"({len(self.segments) - len(segs)} ranks elided)")
        return "\n".join(lines)


def trace_step(model: PerformanceModel, partition: Partition) -> StepTrace:
    """Trace one simulated timestep under a partition."""
    timing = model.step_timing(partition)
    totals = timing.compute_s + timing.comm_s
    critical = int(np.argmax(totals))
    segments = tuple(
        RankSegment(
            rank=r,
            compute_s=float(timing.compute_s[r]),
            comm_s=float(timing.comm_s[r]),
            critical=(r == critical),
        )
        for r in range(timing.nprocs)
    )
    return StepTrace(timing=timing, segments=segments)
