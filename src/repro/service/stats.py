"""Service instrumentation: per-request timing and utilization.

The engine records one :class:`RequestRecord` per served request and
one wall-clock sample per batch.  :class:`ServiceStats` aggregates
them into the numbers an operator cares about — hit rate, throughput,
worker utilization — and renders both a per-source summary and a
per-request breakdown via :func:`~repro.report.format_table`
so service telemetry looks like every other table in the repo.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

__all__ = ["RequestRecord", "ServiceStats"]

SOURCES = ("computed", "memory", "disk", "dedup", "coalesced")

#: Per-request rows a :class:`ServiceStats` keeps (the newest); its
#: counts and sums cover every request, so a long-running server's
#: stats stay O(1) in memory and in ``summary()`` time.
RECORDS_KEPT = 1024


@dataclass(frozen=True)
class RequestRecord:
    """One served request.

    Attributes:
        key: Short prefix of the request's content hash.
        ne, nparts, method, seed: The request tuple.
        source: ``"computed"``, ``"memory"``, ``"disk"``, ``"dedup"``
            (a within-batch duplicate sharing another request's answer)
            or ``"coalesced"`` (a concurrent server request that joined
            another request's in-flight compute).
        elapsed_s: Compute time (0 for cache hits).
    """

    key: str
    ne: int
    nparts: int
    method: str
    seed: int
    source: str
    elapsed_s: float


@dataclass
class ServiceStats:
    """Aggregated engine telemetry across one or more batches.

    Attributes:
        jobs: Worker count of the owning engine.
        records: The last :data:`RECORDS_KEPT` per-request records, in
            service order.
        batch_walls: Wall-clock seconds of each ``run()`` call.
    """

    jobs: int = 1
    records: deque[RequestRecord] = field(
        default_factory=lambda: deque(maxlen=RECORDS_KEPT)
    )
    batch_walls: list[float] = field(default_factory=list)
    _counts: Counter = field(init=False, default_factory=Counter, repr=False)
    _compute_s: float = field(init=False, default=0.0, repr=False)

    def record(self, response) -> None:
        """Count one served response and keep its row."""
        req = response.request
        self._counts[response.source] += 1
        if response.source == "computed":
            self._compute_s += response.elapsed_s
        self.records.append(
            RequestRecord(
                key=req.cache_key()[:12],
                ne=req.ne,
                nparts=req.nparts,
                method=req.method,
                seed=req.seed,
                source=response.source,
                elapsed_s=response.elapsed_s,
            )
        )

    def record_batch_wall(self, wall_s: float) -> None:
        self.batch_walls.append(wall_s)

    # -- aggregates -----------------------------------------------------

    @property
    def total_requests(self) -> int:
        return sum(self._counts.values())

    def count(self, source: str) -> int:
        return self._counts[source]

    @property
    def hits(self) -> int:
        """Requests answered without computing (memory or disk)."""
        return self.total_requests - self.count("computed")

    @property
    def hit_rate(self) -> float:
        total = self.total_requests
        return self.hits / total if total else 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.batch_walls)

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

    def render(self, per_request: bool = False) -> str:
        """Render the telemetry as aligned text tables."""
        from ..report import format_table

        summary = self.summary()
        blocks = [
            format_table(
                ["metric", "value"],
                [[k, v] for k, v in summary.items()],
                title="Partition service stats",
            )
        ]
        if per_request:
            rows = [
                [r.key, r.ne, r.nparts, r.method, r.seed, r.source,
                 f"{1e3 * r.elapsed_s:.1f}"]
                for r in self.records
            ]
            blocks.append(
                format_table(
                    ["key", "ne", "nparts", "method", "seed", "source", "ms"],
                    rows,
                    title="Requests",
                )
            )
        return "\n\n".join(blocks)
