"""Profiling context of the ``--profile`` stage table and engine lifecycle.

The stage table is built from a telemetry session's spans and counters
(see ``tests/telemetry/test_stage_profile.py``); these cases pin the
session activation it relies on and the engine's close semantics.
"""

from __future__ import annotations

from repro.service import PartitionEngine, PartitionRequest
from repro.telemetry import (
    current_session,
    inc,
    span,
    stage_profile,
    telemetry_session,
)


class TestContextManagers:
    def test_stage_and_counter_noop_when_inactive(self):
        assert current_session() is None
        with span("anything"):
            inc("anything")
        assert current_session() is None

    def test_profiled_nests_and_restores_outer(self):
        with telemetry_session() as outer:
            with telemetry_session() as inner:
                with span("inner-only"):
                    pass
            assert current_session() is outer
        assert current_session() is None
        assert "inner-only" in stage_profile(inner)["stages"]
        assert "inner-only" not in stage_profile(outer)["stages"]


class TestEngineLifecycle:
    def test_close_is_idempotent(self):
        engine = PartitionEngine()
        engine.run([PartitionRequest(ne=2, nparts=4)])
        engine.close()
        engine.close()
        assert engine.closed
