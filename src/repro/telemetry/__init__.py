"""Unified telemetry: spans, metrics, and structured run exports.

One coherent observability layer for the whole partitioning stack:

* :mod:`~repro.telemetry.runtime` — the instrumentation API
  (:func:`span`, :func:`inc`, :func:`observe`, :func:`set_gauge`) and
  the session lifecycle (:func:`telemetry_session`,
  :func:`worker_session`, :func:`replay_payload`).  Disabled cost is
  one global read per instrumentation point;
* :mod:`~repro.telemetry.spans` — span records with run-wide ids and a
  cross-process (epoch-microsecond) timeline;
* :mod:`~repro.telemetry.metrics` — Prometheus-shaped counters,
  gauges, and fixed-bucket histograms with per-metric defaults for the
  paper's quality metrics (LB(nelemd), LB(spcv), edgecut, TCV);
* :mod:`~repro.telemetry.exporters` — Chrome/Perfetto trace JSON,
  Prometheus text exposition, JSON-lines run logs (all stamped
  ``"schema": 1`` + run id), and the ``--profile`` stage table built
  from the session's spans and counters.

Quickstart::

    from repro import part_graph, mesh_graph
    from repro.cubesphere import cubed_sphere_mesh
    from repro.telemetry import telemetry_session
    from repro.telemetry.exporters import write_chrome_trace

    with telemetry_session(command="demo") as session:
        part_graph(mesh_graph(cubed_sphere_mesh(8)), 96, "rb")
    write_chrome_trace("trace.json", session)   # open in ui.perfetto.dev
    print(session.metrics.to_prometheus())

The session is the one collector: every view of a run is an export of
it, built after the run.
"""

from .context import (
    RequestContext,
    current_context,
    new_request_id,
    new_trace_id,
    parse_traceparent,
    request_context,
)
from .exporters import (
    chrome_trace,
    load_metrics,
    metrics_snapshot,
    read_run_log,
    render_stage_profile,
    stage_profile,
    write_chrome_trace,
    write_metrics_json,
    write_prometheus,
    write_run_log,
)
from .logs import (
    JsonLogger,
    add_sink,
    close_logging,
    log_event,
    read_log,
    remove_sink,
)
from .metrics import (
    BUCKETS_BY_METRIC,
    DEFAULT_BUCKETS,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .metrics import HELP_BY_METRIC
from .runtime import (
    TelemetrySession,
    activate,
    current_session,
    inc,
    observe,
    record_span,
    replay_payload,
    set_gauge,
    span,
    telemetry_active,
    telemetry_session,
    worker_session,
)
from .spans import Span, SpanCollector

from .sampling import StackSampler, collapse_stacks, sample_stacks
from .slo import SLOTracker

__all__ = [
    "BUCKETS_BY_METRIC",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "HELP_BY_METRIC",
    "Histogram",
    "JsonLogger",
    "MetricsRegistry",
    "RequestContext",
    "SCHEMA_VERSION",
    "SLOTracker",
    "Span",
    "SpanCollector",
    "StackSampler",
    "TelemetrySession",
    "activate",
    "add_sink",
    "chrome_trace",
    "close_logging",
    "collapse_stacks",
    "current_context",
    "current_session",
    "inc",
    "load_metrics",
    "log_event",
    "metrics_snapshot",
    "new_request_id",
    "new_trace_id",
    "observe",
    "parse_traceparent",
    "read_log",
    "read_run_log",
    "record_span",
    "remove_sink",
    "render_stage_profile",
    "replay_payload",
    "request_context",
    "sample_stacks",
    "set_gauge",
    "span",
    "stage_profile",
    "telemetry_active",
    "telemetry_session",
    "worker_session",
    "write_chrome_trace",
    "write_metrics_json",
    "write_prometheus",
    "write_run_log",
]
