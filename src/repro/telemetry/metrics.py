"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is deliberately Prometheus-shaped — counters only go up,
gauges are last-write-wins, histograms have *fixed* bucket boundaries
chosen at creation — so one snapshot can be rendered as Prometheus text
exposition, merged across processes (worker registries are merged into
the parent's after a pool round-trip), and compared between runs.

Metric identity is ``(name, labels)``; labels are plain ``str -> str``
pairs.  Quality metrics use histograms with per-metric default bucket
boundaries (:data:`BUCKETS_BY_METRIC`): load-balance ratios live in
``[0, 1]``, edgecut and TCV are element/point counts.
"""

from __future__ import annotations

from bisect import bisect_left

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "BUCKETS_BY_METRIC",
    "HELP_BY_METRIC",
]

#: Prometheus's classic latency boundaries (seconds) — the fallback.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Load-balance ratios are in [0, 1] and interesting near 0.
_LB_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5)
#: Edge/point counts: powers of two spanning toy meshes to Ne=48.
_COUNT_BUCKETS = tuple(float(1 << p) for p in range(3, 18))
#: Server request latencies: warm cache hits are sub-millisecond, so the
#: low end is finer than Prometheus's classic boundaries.
_SERVER_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default boundaries by metric name (exact match, else DEFAULT_BUCKETS).
BUCKETS_BY_METRIC: dict[str, tuple[float, ...]] = {
    "request_lb_nelemd": _LB_BUCKETS,
    "request_lb_spcv": _LB_BUCKETS,
    "request_edgecut": _COUNT_BUCKETS,
    "request_tcv_points": _COUNT_BUCKETS,
    "repartition_lb_after": _LB_BUCKETS,
    "repartition_fraction_moved": _LB_BUCKETS,
    "server_request_seconds": _SERVER_LATENCY_BUCKETS,
}

#: ``# HELP`` text by metric name (exposition format requires one per
#: family; unknown metrics get a generic line).
HELP_BY_METRIC: dict[str, str] = {
    "cache_hits": "Requests answered from the partition cache.",
    "cache_misses": "Requests that missed the partition cache.",
    "part_graph_total": "part_graph calls by method.",
    "pool_queue_depth": "Cache misses queued on the engine worker pool.",
    "request_compute_seconds": "Worker compute time per computed request.",
    "request_edgecut": "Edge cut of served partitions.",
    "request_lb_nelemd": "Element load imbalance of served partitions.",
    "request_lb_spcv": "Comm-volume load imbalance of served partitions.",
    "request_tcv_points": "Total communication volume (points) served.",
    "repartition_fraction_moved": (
        "Fraction of elements migrated per served repartition plan."
    ),
    "repartition_lb_after": "Load imbalance after the repartition plan.",
    "server_repartition_cache_hits": (
        "Repartition requests answered from the engine cache."
    ),
    "server_repartition_total": (
        "Repartition plans served, by source and partitioner."
    ),
    "server_coalesced_total": (
        "Requests that joined another request's in-flight compute."
    ),
    "server_queue_depth": "Computes currently in flight on the server.",
    "server_rejected_total": "Requests rejected by admission control (503).",
    "server_request_seconds": "Server request latency (accept to response).",
    "server_requests_total": "HTTP requests served, by status and partitioner.",
    "service_requests_total": "Partition requests served, by source.",
    "stage_cache_total": "Per-process memo lookups, by stage and outcome.",
    "worker_payloads_merged": "Worker telemetry payloads merged by the parent.",
}


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def state(self) -> dict:
        return {"value": self.value}

    def merge(self, state: dict) -> None:
        self.value += float(state.get("value", 0.0))


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def state(self) -> dict:
        return {"value": self.value}

    def merge(self, state: dict) -> None:
        self.value = float(state.get("value", self.value))


class Histogram:
    """Fixed-boundary histogram with sum and count.

    ``counts[i]`` is the number of observations ``<= boundaries[i]``
    exclusive of earlier buckets; ``counts[-1]`` is the ``+Inf`` bucket.
    """

    __slots__ = ("boundaries", "counts", "total", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, boundaries: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ValueError("boundaries must be non-empty and ascending")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def state(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "min": self.min if self.total else None,
            "max": self.max if self.total else None,
        }

    def merge(self, state: dict) -> None:
        bounds = tuple(float(b) for b in state.get("boundaries", ()))
        if bounds != self.boundaries:
            raise ValueError(
                f"histogram boundary mismatch: {bounds} vs {self.boundaries}"
            )
        for i, c in enumerate(state.get("counts", ())):
            self.counts[i] += int(c)
        self.total += int(state.get("count", 0))
        self.sum += float(state.get("sum", 0.0))
        if state.get("min") is not None:
            self.min = min(self.min, float(state["min"]))
        if state.get("max") is not None:
            self.max = max(self.max, float(state["max"]))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """All metrics of one telemetry session, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}
        # The same series keyed by ``(name, *labels.items())`` as a
        # call site passes them, so a hot ``inc``/``observe`` skips
        # sorting and ``str()``-ing its labels.
        self._series: dict[tuple, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, name: str, labels: dict, factory) -> object:
        series = (name, *labels.items())
        metric = self._series.get(series)
        if metric is not None:
            return metric
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        # Only all-str labels take the shortcut: ``1 == True`` would
        # otherwise map labels that ``str()`` apart onto one series.
        if all(type(value) is str for value in labels.values()):
            self._series[series] = metric
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        metric = self._get(name, labels, Counter)
        if not isinstance(metric, Counter):
            raise TypeError(f"{name} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        metric = self._get(name, labels, Gauge)
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} is a {metric.kind}, not a gauge")
        return metric

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        if buckets is None:
            buckets = BUCKETS_BY_METRIC.get(name, DEFAULT_BUCKETS)
        metric = self._get(name, labels, lambda: Histogram(buckets))
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name} is a {metric.kind}, not a histogram")
        return metric

    def items(self):
        """``(name, labels_dict, metric)`` triples, sorted by identity."""
        for (name, labels) in sorted(self._metrics):
            yield name, dict(labels), self._metrics[(name, labels)]

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """JSON-ready list of every metric's full state."""
        return [
            {"name": name, "kind": metric.kind, "labels": labels,
             **metric.state()}
            for name, labels, metric in self.items()
        ]

    def merge(self, snapshot: list[dict]) -> None:
        """Fold a snapshot (e.g. from a worker process) into this registry."""
        for entry in snapshot:
            kind = entry.get("kind")
            if kind not in _KINDS:
                continue  # tolerate unknown metric kinds
            labels = dict(entry.get("labels") or {})
            if kind == "histogram":
                bounds = tuple(float(b) for b in entry.get("boundaries", ()))
                metric = self.histogram(
                    entry["name"], buckets=bounds or None, **labels
                )
            elif kind == "counter":
                metric = self.counter(entry["name"], **labels)
            else:
                metric = self.gauge(entry["name"], **labels)
            metric.merge(entry)

    @classmethod
    def from_snapshot(cls, snapshot: list[dict]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        return registry

    # -- rendering ------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one metric family per block).

        Emits ``# HELP`` and ``# TYPE`` once per family and escapes
        label values (backslash, double-quote, newline) per the text
        format spec, so adversarial label content cannot corrupt the
        exposition.
        """
        lines: list[str] = []
        seen_type: set[str] = set()
        for name, labels, metric in self.items():
            if name not in seen_type:
                help_text = HELP_BY_METRIC.get(name, f"repro {metric.kind}.")
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
                lines.append(f"# TYPE {name} {metric.kind}")
                seen_type.add(name)
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, count in zip(metric.boundaries, metric.counts):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket{_label_str(labels, le=_fmt_num(bound))}"
                        f" {cumulative}"
                    )
                lines.append(
                    f'{name}_bucket{_label_str(labels, le="+Inf")} {metric.total}'
                )
                lines.append(f"{name}_sum{_label_str(labels)} {_fmt_num(metric.sum)}")
                lines.append(f"{name}_count{_label_str(labels)} {metric.total}")
            else:
                lines.append(f"{name}{_label_str(labels)} {_fmt_num(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Human-readable text tables (the repo's standard format)."""
        from ..report import format_table

        blocks: list[str] = []
        scalar_rows = [
            [name, _labels_text(labels), metric.kind, metric.value]
            for name, labels, metric in self.items()
            if not isinstance(metric, Histogram)
        ]
        if scalar_rows:
            blocks.append(
                format_table(
                    ["metric", "labels", "kind", "value"],
                    scalar_rows,
                    title="Counters and gauges",
                )
            )
        for name, labels, metric in self.items():
            if not isinstance(metric, Histogram):
                continue
            rows = []
            lo = "0"
            for bound, count in zip(metric.boundaries, metric.counts):
                rows.append([f"({lo}, {_fmt_num(bound)}]", count])
                lo = _fmt_num(bound)
            rows.append([f"({lo}, +Inf)", metric.counts[-1]])
            title = f"histogram {name}{_labels_text(labels)}  " + (
                f"count={metric.total} mean={metric.mean:.6g} "
                f"min={metric.min:.6g} max={metric.max:.6g}"
                if metric.total
                else "count=0"
            )
            blocks.append(format_table(["bucket", "count"], rows, title=title))
        return "\n\n".join(blocks) if blocks else "(no metrics recorded)"


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring per the exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    """Escape one label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(labels: dict[str, str], **extra: str) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
