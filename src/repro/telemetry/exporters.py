"""Telemetry exporters: Chrome trace JSON, Prometheus text, JSONL logs.

Four views of one :class:`TelemetrySession`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome /
  Perfetto trace-event format (``chrome://tracing``,
  https://ui.perfetto.dev): one complete (``"ph": "X"``) event per
  span, worker spans on their own track of the parent process;
* :func:`write_prometheus` — the registry's text exposition, for
  scraping or diffing;
* :func:`write_run_log` / :func:`read_run_log` — structured JSON-lines:
  a ``run`` header line, one ``span`` line per span, one ``metric``
  line per metric.  Readers tolerate unknown kinds and fields, so the
  format can grow without breaking old tooling;
* :func:`stage_profile` / :func:`render_stage_profile` — the
  ``--profile`` stage table: span time and calls grouped by name, plus
  the unlabelled counters.

Every export carries ``"schema": 1`` and the session's run id.
:func:`load_metrics` reads the registry back from either a metrics
snapshot JSON or a run log.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import time

from .metrics import SCHEMA_VERSION, Counter, MetricsRegistry
from .runtime import TelemetrySession

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_prometheus",
    "metrics_snapshot",
    "write_metrics_json",
    "write_run_log",
    "read_run_log",
    "load_metrics",
    "stage_profile",
    "render_stage_profile",
]


def chrome_trace(session: TelemetrySession) -> dict:
    """The session's spans as a Chrome trace-event JSON object."""
    events: list[dict] = []
    pids: dict[int, None] = {}
    if session.tracer is not None:
        for span in session.tracer.spans:
            pids.setdefault(span.pid, None)
            args = dict(span.args)
            args["span_id"] = span.id
            if span.parent:
                args["parent_id"] = span.parent
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat or "repro",
                    "ph": "X",
                    "ts": span.ts_us,
                    "dur": span.dur_us,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
    for pid in pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro run {session.run_id}"},
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "run_id": session.run_id,
        "displayTimeUnit": "ms",
        "meta": dict(session.meta),
        "traceEvents": events,
    }


def write_chrome_trace(path: Path | str, session: TelemetrySession) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(session), indent=1) + "\n")
    return path


def write_prometheus(path: Path | str, session: TelemetrySession) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    registry = session.metrics if session.metrics is not None else MetricsRegistry()
    path.write_text(registry.to_prometheus())
    return path


def metrics_snapshot(session: TelemetrySession) -> dict:
    """JSON-ready snapshot of the session's metrics registry."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "metrics",
        "run_id": session.run_id,
        "meta": dict(session.meta),
        "metrics": (
            session.metrics.snapshot() if session.metrics is not None else []
        ),
    }


def write_metrics_json(path: Path | str, session: TelemetrySession) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(metrics_snapshot(session), indent=2, sort_keys=True) + "\n"
    )
    return path


def write_run_log(path: Path | str, session: TelemetrySession) -> Path:
    """Structured JSON-lines run log (one event object per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "kind": "run",
                "run_id": session.run_id,
                "started_unix": session.started_unix,
                "meta": dict(session.meta),
            },
            sort_keys=True,
        )
    ]
    if session.tracer is not None:
        for span in session.tracer.spans:
            lines.append(
                json.dumps(
                    {"kind": "span", "run_id": session.run_id, **span.to_dict()},
                    sort_keys=True,
                )
            )
    if session.metrics is not None:
        for entry in session.metrics.snapshot():
            # The entry carries its own "kind" (counter/gauge/histogram),
            # so it nests under "metric" rather than spreading flat.
            lines.append(
                json.dumps(
                    {"kind": "metric", "run_id": session.run_id, "metric": entry},
                    sort_keys=True,
                )
            )
    path.write_text("\n".join(lines) + "\n")
    return path


def read_run_log(path: Path | str) -> dict:
    """Parse a run log into ``{"run": ..., "spans": [...], "metrics": ...}``.

    Unknown kinds and fields are ignored (forward compatibility).
    """
    run: dict = {}
    spans: list[dict] = []
    snapshot: list[dict] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        kind = event.get("kind")
        if kind == "run":
            run = event
        elif kind == "span":
            spans.append(event)
        elif kind == "metric" and isinstance(event.get("metric"), dict):
            snapshot.append(event["metric"])
        # other kinds: tolerated, skipped
    return {
        "run": run,
        "spans": spans,
        "metrics": MetricsRegistry.from_snapshot(snapshot),
    }


def load_metrics(path: Path | str) -> MetricsRegistry:
    """Load a registry from a metrics snapshot JSON or a JSONL run log."""
    path = Path(path)
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return read_run_log(path)["metrics"]
    if isinstance(data, dict) and isinstance(data.get("metrics"), list):
        return MetricsRegistry.from_snapshot(data["metrics"])
    raise ValueError(
        f"{path}: not a metrics snapshot (expected a 'metrics' list) "
        "or JSONL run log"
    )


def stage_profile(session: TelemetrySession, **meta) -> dict:
    """Per-stage wall time of the session's spans, plus its counters.

    Spans are grouped by name (seconds summed, calls counted) and
    ordered by time, descending; ``counters`` holds every unlabelled
    counter.  ``elapsed_s`` is the wall time since the session
    started, so build the profile right after the profiled run.
    Stages may nest (K-way's ``initial`` stage runs a whole recursive
    bisection), so stage times can overlap.
    """
    stages: dict[str, dict] = {}
    if session.tracer is not None:
        for span in session.tracer.spans:
            entry = stages.setdefault(span.name, {"seconds": 0.0, "calls": 0})
            entry["seconds"] += span.dur_us / 1e6
            entry["calls"] += 1
    counters: dict[str, int] = {}
    if session.metrics is not None:
        for name, labels, metric in session.metrics.items():
            if isinstance(metric, Counter) and not labels:
                counters[name] = int(metric.value)
    return {
        **meta,
        "schema": SCHEMA_VERSION,
        "elapsed_s": time() - session.started_unix,
        "stages": dict(
            sorted(stages.items(), key=lambda kv: kv[1]["seconds"], reverse=True)
        ),
        "counters": counters,
    }


def render_stage_profile(profile: dict, title: str) -> str:
    """Text table of a :func:`stage_profile` with a ``counters:`` line."""
    elapsed = profile["elapsed_s"]
    stages = profile["stages"]
    lines = [f"{title}  (wall {1e3 * elapsed:.1f} ms)"]
    width = max([len(n) for n in stages] + [5])
    lines.append(f"{'stage':<{width}}  {'calls':>7}  {'ms':>9}  {'%wall':>6}")
    for name, entry in stages.items():
        sec = entry["seconds"]
        pct = 100.0 * sec / elapsed if elapsed > 0 else 0.0
        lines.append(
            f"{name:<{width}}  {entry['calls']:>7}  {1e3 * sec:>9.1f}  {pct:>5.1f}%"
        )
    if profile["counters"]:
        lines.append("counters: " + "  ".join(
            f"{k}={v}" for k, v in sorted(profile["counters"].items())
        ))
    return "\n".join(lines)
