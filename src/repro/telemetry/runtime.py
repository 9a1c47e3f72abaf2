"""Telemetry runtime: the global collector state and instrumentation API.

Instrumentation points throughout the library call :func:`span`,
:func:`inc`, :func:`observe` and :func:`set_gauge`.  When nothing is
collecting, each costs **one module-global read** (``span`` returns a
shared no-op context manager; the metric helpers return immediately) —
the library runs unchanged.

The one collector is a :class:`TelemetrySession` (run id, span tracer,
metrics registry), activated with :func:`telemetry_session` or
:func:`activate`.  Every view of a run — Chrome trace, metrics
snapshot, run log, and the ``--profile`` stage table
(:func:`repro.telemetry.exporters.stage_profile`) — is built from it
after the fact.

Worker processes of the service pool activate a fresh session with
:func:`worker_session`, export it as a picklable payload, and the
parent merges it with :func:`replay_payload` — spans land in the
parent's tracer (re-parented under the span open at ingest time, e.g.
the engine's ``pool`` span) and counters and histograms fold into the
parent's registry, so worker-side stages show up in every view.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from time import perf_counter, time, time_ns

from .context import current_context
from .metrics import SCHEMA_VERSION, MetricsRegistry
from .spans import SpanCollector

__all__ = [
    "SCHEMA_VERSION",
    "TelemetrySession",
    "telemetry_session",
    "worker_session",
    "current_session",
    "telemetry_active",
    "activate",
    "replay_payload",
    "span",
    "record_span",
    "inc",
    "observe",
    "set_gauge",
]


class TelemetrySession:
    """One run's collectors: a span tracer and a metrics registry.

    Args:
        run_id: Stable identifier stamped on every export; generated
            when omitted.
        trace: Collect spans.
        metrics: Collect metrics.
        meta: Free-form JSON-serializable annotations (command, args).
    """

    def __init__(
        self,
        run_id: str | None = None,
        trace: bool = True,
        metrics: bool = True,
        meta: dict | None = None,
    ) -> None:
        self.run_id = run_id or uuid.uuid4().hex[:16]
        self.started_unix = time()
        self.tracer = SpanCollector() if trace else None
        self.metrics = MetricsRegistry() if metrics else None
        self.meta = dict(meta or {})
        #: Captured log records (worker sessions only; see
        #: :func:`repro.telemetry.logs.capture_records`).
        self.log_records: list[dict] | None = None

    def to_payload(self) -> dict:
        """Picklable export of everything collected (worker -> parent)."""
        return {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "spans": self.tracer.export() if self.tracer is not None else [],
            "metrics": (
                self.metrics.snapshot() if self.metrics is not None else []
            ),
            "logs": list(self.log_records) if self.log_records else [],
        }


#: The active session (at most one per process); ``None`` when disabled.
_SESSION: TelemetrySession | None = None


@contextmanager
def activate(session: TelemetrySession | None):
    """Install ``session`` as the collector for the block.

    ``None`` disables collection for the block; the previously active
    session is restored on exit either way, so sessions nest.
    """
    global _SESSION
    prev = _SESSION
    _SESSION = session
    try:
        yield
    finally:
        _SESSION = prev


@contextmanager
def telemetry_session(
    run_id: str | None = None,
    trace: bool = True,
    metrics: bool = True,
    **meta,
):
    """Activate a fresh :class:`TelemetrySession` for the block."""
    session = TelemetrySession(run_id, trace=trace, metrics=metrics, meta=meta)
    with activate(session=session):
        yield session


@contextmanager
def worker_session():
    """Collector for one task inside a pool worker process.

    Replaces any inherited collector (worker processes are forked, so
    the parent's registry object must not be touched), buffers log
    records instead of writing to inherited sink descriptors, and
    exposes :meth:`TelemetrySession.to_payload` for shipping back.
    """
    from .logs import capture_records

    session = TelemetrySession(trace=True, metrics=True)
    with activate(session):
        with capture_records() as records:
            session.log_records = records
            yield session


def current_session() -> TelemetrySession | None:
    """The active session, or ``None``."""
    return _SESSION


def telemetry_active() -> bool:
    """Whether a session is collecting."""
    return _SESSION is not None


def replay_payload(payload: dict | None) -> None:
    """Merge a worker payload into the active session."""
    session = _SESSION
    if session is None or not payload:
        return
    spans = payload.get("spans")
    if spans and session.tracer is not None:
        session.tracer.ingest(spans, attach_parent=session.tracer.open_parent())
    snapshot = payload.get("metrics")
    if snapshot and session.metrics is not None:
        session.metrics.merge(snapshot)
    logs = payload.get("logs")
    if logs:
        from .logs import emit_records

        emit_records(logs)


# -- instrumentation points --------------------------------------------------


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _LiveSpan:
    """Times one region and reports it to the session's tracer."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_sid", "_parent", "_ts", "_t0")

    def __init__(self, tracer: SpanCollector, name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_LiveSpan":
        self._sid, self._parent = self._tracer.begin()
        self._ts = time_ns()
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        dt = perf_counter() - self._t0
        self._tracer.end(
            self._sid,
            self._parent,
            self._name,
            self._cat,
            self._ts // 1000,
            dt * 1e6,
            _stamped(self._args),
        )
        return False


def _stamped(args: dict) -> dict:
    """``args`` with the active request's identity, so one trace id
    links server, engine, and worker-process spans (the worker
    re-enters the context it was shipped)."""
    ctx = current_context()
    if ctx is not None:
        args["trace_id"] = ctx.trace_id
        args["request_id"] = ctx.request_id
    return args


def span(name: str, cat: str = "", **args):
    """Time the enclosed block (one global read when disabled)."""
    session = _SESSION
    if session is None or session.tracer is None:
        return _NOOP
    return _LiveSpan(session.tracer, name, cat, args)


def record_span(name: str, cat: str, ts_ns: int, dur_ns: int, **args) -> None:
    """Record a region timed elsewhere, such as inside a compiled
    kernel: it started at epoch ``ts_ns`` and lasted ``dur_ns``."""
    session = _SESSION
    if session is None or session.tracer is None:
        return
    tracer = session.tracer
    sid, parent = tracer.begin()
    tracer.end(sid, parent, name, cat, ts_ns // 1000, dur_ns / 1e3, _stamped(args))


def inc(name: str, n: float = 1, **labels: str) -> None:
    """Bump a counter."""
    session = _SESSION
    if session is None or session.metrics is None:
        return
    session.metrics.counter(name, **labels).inc(n)


def observe(name: str, value: float, **labels: str) -> None:
    """Record one histogram observation."""
    session = _SESSION
    if session is None or session.metrics is None:
        return
    session.metrics.histogram(name, **labels).observe(value)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge to an instantaneous value."""
    session = _SESSION
    if session is None or session.metrics is None:
        return
    session.metrics.gauge(name, **labels).set(value)
