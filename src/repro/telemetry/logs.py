"""Structured JSON-lines logging, request-scoped and sampled.

One :func:`log_event` call anywhere in the library emits one JSON
object per configured sink — stdlib-only, one line per event, schema::

    {"schema": 1, "ts": <epoch seconds>, "pid": <int>, "event": "...",
     "request_id": "...", "trace_id": "...", ...free-form fields...}

``request_id``/``trace_id`` are stamped automatically from the active
:class:`~repro.telemetry.context.RequestContext`, so every record a
request produces — in the server process *and* in pool workers — can be
joined back to its trace.

Design points:

* **Disabled cost is one module-global read.**  With no sink configured
  and no capture active, :func:`log_event` returns immediately; the
  library can call it on hot paths unconditionally.
* **Sinks filter by event name** (``events={"access"}`` gives a pure
  access log) and **sample by trace id**: with ``sample=0.25`` a sink
  keeps all records of ~25% of traces and none of the rest — whole
  requests are kept or dropped together, never half a trace.  Records
  with no trace context always pass the sampler.
* **Worker processes capture instead of writing.**  A forked worker
  must not interleave writes on an inherited file descriptor, so
  :func:`capture_records` (entered by
  :func:`~repro.telemetry.runtime.worker_session`) buffers records; the
  parent replays them with :func:`emit_records` after the pool
  round-trip, applying its own sinks' filters and sampling.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from time import time

from .context import current_context
from .metrics import SCHEMA_VERSION

__all__ = [
    "JsonLogger",
    "add_sink",
    "remove_sink",
    "close_logging",
    "log_event",
    "capture_records",
    "emit_records",
    "read_log",
]


class JsonLogger:
    """One JSON-lines sink: a file path or a text stream.

    Args:
        target: A path (opened in append mode, parents created) or a
            writable text stream (e.g. ``sys.stderr``).
        sample: Fraction of *traces* to keep, in ``(0, 1]``.  Applied
            per trace id, so one request's records are all kept or all
            dropped; context-free records are always kept.
        events: Event names this sink accepts; ``None`` accepts all.
    """

    def __init__(
        self,
        target: Path | str | object,
        sample: float = 1.0,
        events: set[str] | frozenset[str] | None = None,
    ) -> None:
        if not 0.0 < sample <= 1.0:
            raise ValueError(f"sample must be in (0, 1], got {sample}")
        self.sample = float(sample)
        self.events = frozenset(events) if events is not None else None
        self._lock = threading.Lock()
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(path, "a", encoding="utf-8")
            self._owns_stream = True
            self.path: Path | None = path
        else:
            self._stream = target
            self._owns_stream = False
            self.path = None

    def accepts(self, record: dict) -> bool:
        """Whether this sink's event filter and sampler pass ``record``."""
        if self.events is not None and record.get("event") not in self.events:
            return False
        if self.sample >= 1.0:
            return True
        trace_id = record.get("trace_id")
        if not trace_id:
            return True
        # Deterministic per-trace coin flip: low 8 hex digits of the
        # (already random) trace id against the sample threshold.
        return int(str(trace_id)[-8:], 16) < self.sample * 0x100000000

    def write(self, record: dict) -> None:
        """Write one record if the filter and sampler accept it."""
        if not self.accepts(record):
            return
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()


#: Configured sinks (usually zero or one; the server may run an access
#: log and a full event log side by side).  Tuple, swapped atomically.
_SINKS: tuple[JsonLogger, ...] = ()

#: When not None, records are buffered here instead of written (worker
#: processes; see module docstring).
_CAPTURE: list[dict] | None = None


def add_sink(
    target: Path | str | object,
    sample: float = 1.0,
    events: set[str] | None = None,
) -> JsonLogger:
    """Configure a new log sink; returns it (pass to :func:`remove_sink`)."""
    global _SINKS
    sink = JsonLogger(target, sample=sample, events=events)
    _SINKS = _SINKS + (sink,)
    return sink


def remove_sink(sink: JsonLogger) -> None:
    """Detach and close one sink (idempotent)."""
    global _SINKS
    _SINKS = tuple(s for s in _SINKS if s is not sink)
    sink.close()


def close_logging() -> None:
    """Detach and close every sink."""
    global _SINKS
    sinks, _SINKS = _SINKS, ()
    for sink in sinks:
        sink.close()


def _build_record(event: str, fields: dict) -> dict:
    record = {
        "schema": SCHEMA_VERSION,
        "ts": time(),
        "pid": os.getpid(),
        "event": event,
    }
    ctx = current_context()
    if ctx is not None:
        record["request_id"] = ctx.request_id
        record["trace_id"] = ctx.trace_id
    record.update(fields)
    return record


def log_event(event: str, **fields) -> None:
    """Emit one structured log record (no-op when nothing is listening)."""
    capture = _CAPTURE
    if capture is not None:
        capture.append(_build_record(event, fields))
        return
    sinks = _SINKS
    if not sinks:
        return
    record = _build_record(event, fields)
    for sink in sinks:
        try:
            sink.write(record)
        except (OSError, ValueError):  # a dead sink must never fail a request
            pass


@contextmanager
def capture_records():
    """Buffer records instead of writing (worker-process mode).

    Also masks any sinks inherited across a fork: a worker must not
    write to the parent's file descriptors.  Yields the buffer; ship it
    home in the worker payload and replay with :func:`emit_records`.
    """
    global _CAPTURE
    prev = _CAPTURE
    records: list[dict] = []
    _CAPTURE = records
    try:
        yield records
    finally:
        _CAPTURE = prev


def emit_records(records: list[dict] | None) -> None:
    """Replay captured worker records through this process's sinks.

    Records keep their original ``ts``/``pid``/ids; each sink applies
    its own event filter and trace sampling, exactly as for local
    events.
    """
    if not records:
        return
    sinks = _SINKS
    if not sinks:
        return
    for record in records:
        if not isinstance(record, dict):
            continue
        for sink in sinks:
            try:
                sink.write(record)
            except (OSError, ValueError):
                pass


def read_log(path: Path | str) -> list[dict]:
    """Parse a JSON-lines log back into records (bad lines skipped)."""
    records: list[dict] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records
