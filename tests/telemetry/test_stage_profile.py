"""The ``--profile`` stage table, built from a session's spans and counters."""

from __future__ import annotations

import json
import time

import pytest

from repro.telemetry import (
    TelemetrySession,
    inc,
    render_stage_profile,
    span,
    stage_profile,
    telemetry_session,
)


def _record(session: TelemetrySession, name: str, seconds: float) -> None:
    """Append one finished span of ``seconds`` to the session's tracer."""
    sid, parent = session.tracer.begin()
    session.tracer.end(sid, parent, name, "", 0, seconds * 1e6, {})


@pytest.fixture()
def session():
    session = TelemetrySession(run_id="prof1234")
    _record(session, "coarsen", 0.25)
    _record(session, "refine", 0.5)
    _record(session, "coarsen", 0.75)
    session.metrics.counter("hits").inc()
    session.metrics.counter("hits").inc(4)
    session.metrics.counter("part_graph_total", method="rb").inc()
    session.metrics.histogram("request_lb_nelemd").observe(0.01)
    return session


class TestStageProfile:
    def test_stages_accumulate_seconds_and_calls(self, session):
        stages = stage_profile(session)["stages"]
        assert stages["coarsen"] == {"seconds": 1.0, "calls": 2}
        assert stages["refine"] == {"seconds": 0.5, "calls": 1}

    def test_counters_are_the_unlabelled_counters(self, session):
        assert stage_profile(session)["counters"] == {"hits": 5}

    def test_elapsed_is_wall_time_since_session_start(self):
        session = TelemetrySession()
        time.sleep(0.01)
        assert stage_profile(session)["elapsed_s"] >= 0.01

    def test_json_shape_with_meta(self, session):
        payload = json.loads(
            json.dumps(stage_profile(session, command="profile", ne=8))
        )
        assert set(payload) == {
            "command", "ne", "schema", "elapsed_s", "stages", "counters",
        }
        assert payload["command"] == "profile"
        assert payload["ne"] == 8
        assert payload["schema"] == 1
        assert payload["elapsed_s"] > 0
        assert payload["stages"]["refine"] == {"seconds": 0.5, "calls": 1}

    def test_render_sorts_by_time_desc(self, session):
        profile = stage_profile(session)
        assert list(profile["stages"]) == ["coarsen", "refine"]
        lines = render_stage_profile(profile, title="T").splitlines()
        assert lines[0].startswith("T  (wall")
        names = [line.split()[0] for line in lines[2:-1]]
        assert names == ["coarsen", "refine"]
        assert lines[-1] == "counters: hits=5"

    def test_live_spans_and_counters_feed_the_profile(self):
        with telemetry_session() as session:
            with span("work"):
                pass
            inc("events", 2)
        profile = stage_profile(session)
        assert profile["stages"]["work"]["calls"] == 1
        assert profile["counters"] == {"events": 2}
