"""Service instrumentation: aggregate timing and utilization.

The engine counts every served response by its source and sums the
wall-clock time of its batches.  :class:`ServiceStats` turns those
into the numbers an operator cares about — hit rate, throughput,
worker utilization — and renders them via
:func:`~repro.report.format_table` so service telemetry looks like
every other table in the repo.  It keeps counts and sums only, so a
long-running server's stats stay O(1) in memory and in ``summary()``
time; the server's ``/debug/requests`` ring keeps recent requests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["ServiceStats"]


@dataclass
class ServiceStats:
    """Aggregated engine telemetry across one or more batches.

    Attributes:
        jobs: Worker count of the owning engine.
        wall_s: Wall-clock seconds of every ``run()`` call, summed.
    """

    jobs: int = 1
    wall_s: float = 0.0
    _counts: Counter = field(init=False, default_factory=Counter, repr=False)
    _compute_s: float = field(init=False, default=0.0, repr=False)

    def record(self, response) -> None:
        """Count one served response by its source."""
        self._counts[response.source] += 1
        if response.source == "computed":
            self._compute_s += response.elapsed_s

    def record_batch_wall(self, wall_s: float) -> None:
        self.wall_s += wall_s

    # -- aggregates -----------------------------------------------------

    @property
    def total_requests(self) -> int:
        return sum(self._counts.values())

    def count(self, source: str) -> int:
        return self._counts[source]

    @property
    def hits(self) -> int:
        """Requests answered without computing: memory or disk hits,
        dedup repeats and coalesced joiners."""
        return self.total_requests - self.count("computed")

    @property
    def hit_rate(self) -> float:
        total = self.total_requests
        return self.hits / total if total else 0.0

    @property
    def compute_s(self) -> float:
        """Total worker compute time (sums across parallel workers)."""
        return self._compute_s

    @property
    def throughput(self) -> float:
        """Requests served per wall-clock second."""
        return self.total_requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker pool kept busy, in [0, 1]."""
        if self.wall_s <= 0 or self.jobs < 1:
            return 0.0
        return min(1.0, self.compute_s / (self.wall_s * self.jobs))

    # -- rendering ------------------------------------------------------

    def summary(self) -> dict[str, float | int]:
        return {
            "requests": self.total_requests,
            "computed": self.count("computed"),
            "memory_hits": self.count("memory"),
            "disk_hits": self.count("disk"),
            "dedup_hits": self.count("dedup"),
            "coalesced": self.count("coalesced"),
            "hit_rate": self.hit_rate,
            "wall_s": self.wall_s,
            "compute_s": self.compute_s,
            "throughput_rps": self.throughput,
            "worker_utilization": self.worker_utilization,
            "jobs": self.jobs,
        }

    def render(self) -> str:
        """Render the aggregates as an aligned text table."""
        from ..report import format_table

        return format_table(
            ["metric", "value"],
            [[k, v] for k, v in self.summary().items()],
            title="Partition service stats",
        )
