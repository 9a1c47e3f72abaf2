"""Observability end-to-end: trace propagation, debug endpoints, logs.

Each test runs a real server on an ephemeral port.
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.server import Connection, fetch
from repro.telemetry import (
    RequestContext,
    add_sink,
    read_log,
    remove_sink,
    telemetry_session,
)
from tests.server.serving import serving

TRACE = "ab" * 16
PARENT = "cd" * 8


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestRequestIdentity:
    def test_every_response_carries_identity_headers(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                resp = await fetch(host, port, "GET", "/healthz")
                rid = resp.headers["x-request-id"]
                assert len(rid) == 16
                tp = resp.headers["traceparent"]
                version, trace_id, span_id, flags = tp.split("-")
                assert (version, flags) == ("00", "01")
                assert span_id == rid
                assert len(trace_id) == 32

        run(inner())

    def test_traceparent_header_continues_callers_trace(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    resp = await conn.request(
                        "POST",
                        "/partition",
                        json.dumps({"ne": 2, "nparts": 4}).encode(),
                        headers={"traceparent": f"00-{TRACE}-{PARENT}-01"},
                    )
                    assert resp.status == 200
                    assert resp.headers["traceparent"].split("-")[1] == TRACE
                    data = resp.json()
                    assert data["trace_id"] == TRACE
                    assert data["request_id"] == resp.headers["x-request-id"]
                    # This hop got its own span id, not the caller's.
                    assert data["request_id"] != PARENT

        run(inner())

    def test_malformed_traceparent_starts_a_fresh_trace(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    resp = await conn.request(
                        "POST",
                        "/partition",
                        json.dumps({"ne": 2, "nparts": 4}).encode(),
                        headers={"traceparent": "00-garbage-01"},
                    )
                    assert resp.status == 200
                    trace_id = resp.json()["trace_id"]
                    assert len(trace_id) == 32
                    assert trace_id != "0" * 32

        run(inner())

    def test_error_responses_carry_identity_too(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                resp = await fetch(host, port, "GET", "/nope")
                assert resp.status == 404
                assert "x-request-id" in resp.headers
                # The 404 hints at the known routes, /debug/* included.
                message = resp.json()["error"]["message"]
                assert "/debug/vars" in message

        run(inner())


class TestDebugEndpoints:
    def test_debug_vars_reports_live_internals(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                await fetch(
                    host, port, "POST", "/partition",
                    json.dumps({"ne": 2, "nparts": 4}).encode(),
                )
                data = (await fetch(host, port, "GET", "/debug/vars")).json()
                assert data["schema"] == 1
                assert data["build"]["pid"] == os.getpid()
                assert data["build"]["version"]
                assert data["uptime_s"] >= 0
                assert data["server"]["closing"] is False
                assert data["engine"]["requests"] >= 1
                assert "hit_rate" in data["cache"]
                assert "hits" in data["memos"]["mesh"]
                assert "hits" in data["memos"]["graph"]
                assert data["slo"]["status"] == "ok"
                assert data["coalescing"]["inflight"] == 0

        run(inner())

    def test_debug_requests_ring_buffer(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    resp = await conn.post_json(
                        "/partition", {"ne": 2, "nparts": 4}
                    )
                    rid = resp.headers["x-request-id"]
                    await conn.request("GET", "/healthz")
                    data = (
                        await conn.request("GET", "/debug/requests")
                    ).json()
                    assert data["capacity"] >= len(data["requests"])
                    by_id = {r["request_id"]: r for r in data["requests"]}
                    entry = by_id[rid]
                    assert entry["path"] == "/partition"
                    assert entry["status"] == 200
                    assert entry["source"] == "computed"
                    assert entry["ms"] > 0
                    assert len(entry["trace_id"]) == 32

                    last = (
                        await conn.request("GET", "/debug/requests?n=1")
                    ).json()
                    assert len(last["requests"]) == 1

                    bad = await conn.request("GET", "/debug/requests?n=zero")
                    assert bad.status == 400

        run(inner())

    def test_debug_profile_returns_collapsed_stacks(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                resp = await fetch(
                    host, port, "GET", "/debug/profile?seconds=0.05"
                )
                assert resp.status == 200
                assert resp.headers["content-type"].startswith("text/plain")
                assert int(resp.headers["x-profile-samples"]) >= 1
                for line in resp.body.decode().splitlines():
                    path, _, count = line.rpartition(" ")
                    assert path and int(count) > 0

        run(inner())

    def test_debug_profile_validates_seconds(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                for query in ("seconds=0", "seconds=-1", "seconds=1e9",
                              "seconds=junk"):
                    resp = await fetch(
                        host, port, "GET", f"/debug/profile?{query}"
                    )
                    assert resp.status == 400, query

        run(inner())

    def test_debug_routes_reject_post(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                resp = await fetch(
                    host, port, "POST", "/debug/vars", b"{}"
                )
                assert resp.status == 405

        run(inner())


class TestHealthzSLO:
    def test_healthz_carries_the_slo_verdict(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                await fetch(host, port, "GET", "/healthz")
                health = (await fetch(host, port, "GET", "/healthz")).json()
                assert health["status"] == "ok"
                slo = health["slo"]
                assert slo["status"] == "ok"
                assert [w["seconds"] for w in slo["windows"]] == [60, 300]
                assert slo["lifetime"]["count"] >= 1
                assert slo["objectives"]["burn_threshold"] > 0

        run(inner())


class TestAccessLog:
    def test_one_access_record_per_request(self, tmp_path):
        log_path = tmp_path / "access.jsonl"

        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    first = await conn.post_json(
                        "/partition", {"ne": 2, "nparts": 4}
                    )
                    again = await conn.post_json(
                        "/partition", {"ne": 2, "nparts": 4}
                    )
                    missing = await conn.request("GET", "/nope")
            return first, again, missing

        sink = add_sink(log_path, events={"access"})
        try:
            first, again, missing = run(inner())
        finally:
            remove_sink(sink)
        records = read_log(log_path)
        by_id = {r["request_id"]: r for r in records if "request_id" in r}
        assert all(r["event"] == "access" for r in records)

        computed = by_id[first.headers["x-request-id"]]
        assert computed["method"] == "POST"
        assert computed["path"] == "/partition"
        assert computed["status"] == 200
        assert computed["source"] == "computed"
        assert computed["ms"] > 0
        assert computed["trace_id"] == first.json()["trace_id"]

        assert by_id[again.headers["x-request-id"]]["source"] == "memory"
        assert by_id[missing.headers["x-request-id"]]["status"] == 404


class TestTraceContinuity:
    def test_one_trace_covers_server_engine_and_worker(self):
        """Computed path: worker-process spans share the request trace."""
        with telemetry_session(command="test") as session:
            async def inner():
                async with serving() as server:
                    host, port = server.address
                    async with await Connection.open(host, port) as conn:
                        resp = await conn.request(
                            "POST",
                            "/partition",
                            json.dumps({"ne": 2, "nparts": 4}).encode(),
                            headers={
                                "traceparent": f"00-{TRACE}-{PARENT}-01"
                            },
                        )
                        assert resp.status == 200
                        assert resp.json()["trace_id"] == TRACE

                        # Cache-hit path under a second, distinct trace.
                        other = RequestContext.new()
                        hit = await conn.request(
                            "POST",
                            "/partition",
                            json.dumps({"ne": 2, "nparts": 4}).encode(),
                            headers={"traceparent": other.traceparent()},
                        )
                        assert hit.json()["source"] == "memory"
                        assert hit.json()["trace_id"] == other.trace_id
                        return other.trace_id

            hit_trace = run(inner())

        spans = session.tracer.spans
        traced = [s for s in spans if s.args.get("trace_id") == TRACE]
        names = {s.name for s in traced}
        assert "request" in names  # server accept/dispatch
        assert "compute" in names  # engine pipeline entry
        worker_spans = [s for s in traced if "worker_pid" in s.args]
        assert worker_spans, "no worker-process span joined the trace"
        assert all(s.args["worker_pid"] != os.getpid() for s in worker_spans)

        # The cache-hit request produced its own (worker-free) trace.
        hit_spans = [s for s in spans if s.args.get("trace_id") == hit_trace]
        assert {s.name for s in hit_spans} == {"request"}
