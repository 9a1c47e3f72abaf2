"""End-to-end asyncio tests for the partition server.

Every test spawns a real server on an ephemeral port and drives it
through the async client.  A deliberately slow stub partitioner
(the ``slowstub`` fixture of ``conftest.py``) makes the
concurrency behavior — coalescing, admission control, draining,
disconnect handling — deterministic without large meshes.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.server import Connection, PartitionServer, fetch
from repro.service import PartitionEngine
from tests.server.serving import serving


def run(coro, timeout: float = 60.0):
    """Run one test coroutine with a safety timeout."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def wait_for_inflight(host: str, port: int, value: int, timeout: float = 10.0):
    """Poll /healthz until the in-flight compute count reaches ``value``."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        health = (await fetch(host, port, "GET", "/healthz")).json()
        if health["inflight"] == value:
            return health
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"inflight never reached {value}: {health}")
        await asyncio.sleep(0.05)


class TestRoutes:
    def test_partition_healthz_methods_metrics(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    resp = await conn.post_json(
                        "/partition", {"ne": 2, "nparts": 4}
                    )
                    assert resp.status == 200
                    data = resp.json()
                    assert data["source"] == "computed"
                    assert len(data["assignment"]) == 24
                    assert "lb_nelemd" in data["metrics"]

                    again = await conn.post_json(
                        "/partition", {"ne": 2, "nparts": 4}
                    )
                    assert again.json()["source"] == "memory"
                    assert again.json()["assignment"] == data["assignment"]

                    health = (await conn.request("GET", "/healthz")).json()
                    assert health["status"] == "ok"
                    assert health["inflight"] == 0

                    methods = (await conn.request("GET", "/methods")).json()
                    names = [m["name"] for m in methods["methods"]]
                    assert "sfc" in names and "rb" in names

                    metrics = await conn.request("GET", "/metrics")
                    assert metrics.status == 200
                    assert metrics.headers["content-type"].startswith("text/plain")
                    text = metrics.body.decode()
                    assert 'server_requests_total{partitioner="sfc",status="200"} 2' in text
                    assert "server_request_seconds_count" in text
                    assert "service_requests_total" in text

        run(inner())

    def test_batch_mixed_valid_and_invalid(self):
        async def inner():
            async with serving() as server:
                resp = await (
                    await Connection.open(*server.address)
                ).post_json(
                    "/batch",
                    {
                        "requests": [
                            {"ne": 2, "nparts": 4},
                            {"ne": 2, "nparts": 4},
                            {"ne": 2, "nparts": 999},
                        ]
                    },
                )
                assert resp.status == 200
                items = resp.json()["responses"]
                assert len(items) == 3
                assert items[0]["source"] in ("computed", "coalesced", "memory")
                assert items[1]["source"] in ("computed", "coalesced", "memory")
                assert items[0]["assignment"] == items[1]["assignment"]
                assert items[2]["error"]["status"] == 422

        run(inner())

    def test_unknown_route_and_method(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                assert (await fetch(host, port, "GET", "/nope")).status == 404
                assert (await fetch(host, port, "GET", "/partition")).status == 405

        run(inner())


class TestValidationErrors:
    def test_malformed_json_is_400_with_structured_body(self):
        async def inner():
            async with serving() as server:
                conn = await Connection.open(*server.address)
                resp = await conn.request(
                    "POST", "/partition", b"this is not json"
                )
                assert resp.status == 400
                error = resp.json()["error"]
                assert error["status"] == 400
                assert error["code"] == "bad_json"
                await conn.close()

        run(inner())

    def test_unknown_method_is_422_with_did_you_mean(self):
        async def inner():
            async with serving() as server:
                conn = await Connection.open(*server.address)
                resp = await conn.post_json(
                    "/partition", {"ne": 4, "nparts": 8, "method": "sffc"}
                )
                assert resp.status == 422
                message = resp.json()["error"]["message"]
                assert "did you mean 'sfc'" in message
                await conn.close()

        run(inner())

    def test_inadmissible_ne_and_capability_violation_are_422(self):
        async def inner():
            async with serving() as server:
                conn = await Connection.open(*server.address)
                # sfc requires ne = 2^a 3^b: ne=5 is inadmissible.
                bad_ne = await conn.post_json(
                    "/partition", {"ne": 5, "nparts": 6, "method": "sfc"}
                )
                assert bad_ne.status == 422
                assert "admissible" in bad_ne.json()["error"]["message"]
                # rb takes no refinement schedule: capability violation.
                bad_cap = await conn.post_json(
                    "/partition",
                    {"ne": 4, "nparts": 8, "method": "rb", "schedule": "HH"},
                )
                assert bad_cap.status == 422
                assert "schedule" in bad_cap.json()["error"]["message"]
                await conn.close()

        run(inner())

    def test_morton_is_servable_but_discontinuity_is_422(self):
        async def inner():
            async with serving() as server:
                conn = await Connection.open(*server.address)
                ok = await conn.post_json(
                    "/partition", {"ne": 4, "nparts": 8, "method": "morton"}
                )
                assert ok.status == 200
                assert ok.json()["request"]["method"] == "morton"
                # Z-order cannot chain faces: a schedule is meaningless.
                bad = await conn.post_json(
                    "/partition",
                    {"ne": 4, "nparts": 8, "method": "morton",
                     "schedule": "HH"},
                )
                assert bad.status == 422
                assert "discontinuous" in bad.json()["error"]["message"]
                # And ne must be a power of two for the bit interleave.
                bad_ne = await conn.post_json(
                    "/partition", {"ne": 12, "nparts": 8, "method": "morton"}
                )
                assert bad_ne.status == 422

                methods = (await conn.request("GET", "/methods")).json()
                by_name = {m["name"]: m for m in methods["methods"]}
                assert by_name["morton"]["continuous"] is False
                assert by_name["sfc"]["continuous"] is True
                await conn.close()

        run(inner())


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_compute(self, slowstub):
        async def inner():
            engine = PartitionEngine()
            async with serving(engine) as server:
                host, port = server.address
                payload = {"ne": 2, "nparts": 4, "method": slowstub}

                async def one():
                    async with await Connection.open(host, port) as conn:
                        return (await conn.post_json("/partition", payload)).json()

                results = await asyncio.gather(*(one() for _ in range(5)))
                sources = sorted(r["source"] for r in results)
                assert sources == ["coalesced"] * 4 + ["computed"]
                assert all(
                    r["assignment"] == results[0]["assignment"] for r in results
                )
                metrics = (await fetch(host, port, "GET", "/metrics")).body.decode()
                assert "server_coalesced_total 4" in metrics
                # One compute for five requests.
                assert engine.stats.count("computed") == 1
                assert engine.stats.count("coalesced") == 4

        run(inner())


class TestOneMissPath:
    def test_served_misses_and_hits_reach_the_cache_counters(self):
        """A served miss and two memory hits count like a batch would."""

        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    sources = [
                        (await conn.post_json("/partition", {"ne": 2, "nparts": 4}))
                        .json()["source"]
                        for _ in range(3)
                    ]
                assert sources == ["computed", "memory", "memory"]
                metrics = (await fetch(host, port, "GET", "/metrics")).body.decode()
                lines = metrics.splitlines()
                assert "cache_misses 1" in lines
                assert "cache_hits 2" in lines
                assert server.engine.cache.stats()["stores"] == 1

        run(inner())


class TestAdmissionControl:
    def test_over_limit_distinct_requests_get_503_retry_after(self, slowstub):
        async def inner():
            async with serving(max_pending=1) as server:
                host, port = server.address
                conn_a = await Connection.open(host, port)
                task_a = asyncio.ensure_future(
                    conn_a.post_json(
                        "/partition", {"ne": 2, "nparts": 4, "method": slowstub}
                    )
                )
                await wait_for_inflight(host, port, 1)
                # Distinct request while the only pending slot is taken.
                conn_b = await Connection.open(host, port)
                resp_b = await conn_b.post_json(
                    "/partition", {"ne": 2, "nparts": 6, "method": slowstub}
                )
                assert resp_b.status == 503
                assert resp_b.headers["retry-after"] == "1"
                assert resp_b.json()["error"]["code"] == "overloaded"
                # A duplicate of the in-flight request is coalesced, not
                # rejected: it adds no work.
                conn_c = await Connection.open(host, port)
                resp_c = await conn_c.post_json(
                    "/partition", {"ne": 2, "nparts": 4, "method": slowstub}
                )
                assert resp_c.status == 200
                assert resp_c.json()["source"] == "coalesced"
                resp_a = await task_a
                assert resp_a.status == 200
                metrics = (await fetch(host, port, "GET", "/metrics")).body.decode()
                assert "server_rejected_total 1" in metrics
                for conn in (conn_a, conn_b, conn_c):
                    await conn.close()

        run(inner())


class TestRobustness:
    def test_client_disconnect_never_leaks_a_worker(self, slowstub):
        async def inner():
            async with serving() as server:
                host, port = server.address
                conn = await Connection.open(host, port)
                body = json.dumps(
                    {"ne": 2, "nparts": 4, "method": slowstub}
                ).encode()
                conn._writer.write(
                    b"POST /partition HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\n\r\n"
                    + body
                )
                await conn._writer.drain()
                await wait_for_inflight(host, port, 1)
                conn.abort()  # dead client: no response read, ever
                # The orphaned compute finishes and lands in the cache.
                await wait_for_inflight(host, port, 0)
                resp = await fetch(
                    host, port, "POST", "/partition", body
                )
                assert resp.status == 200
                assert resp.json()["source"] == "memory"

        run(inner())

    def test_request_timeout_returns_504_and_caches_compute(self, slowstub):
        async def inner():
            async with serving(request_timeout=0.2) as server:
                host, port = server.address
                body = json.dumps(
                    {"ne": 2, "nparts": 4, "method": slowstub}
                ).encode()
                resp = await fetch(host, port, "POST", "/partition", body)
                assert resp.status == 504
                assert resp.json()["error"]["code"] == "timeout"
                await wait_for_inflight(host, port, 0)
                resp = await fetch(host, port, "POST", "/partition", body)
                assert resp.status == 200
                assert resp.json()["source"] == "memory"

        run(inner())

    def test_oversized_header_closes_with_431(self):
        async def inner():
            async with serving() as server:
                conn = await Connection.open(*server.address)
                conn._writer.write(
                    b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n"
                )
                await conn._writer.drain()
                resp = await conn._read_response()
                assert resp.status == 431
                await conn.close()

        run(inner())


class TestGracefulShutdown:
    def test_shutdown_drains_inflight_requests(self, slowstub):
        async def inner():
            server = PartitionServer()  # owns, and closes, its engine
            await server.start()
            host, port = server.address
            conn = await Connection.open(host, port)
            pending = asyncio.ensure_future(
                conn.post_json(
                    "/partition", {"ne": 2, "nparts": 4, "method": slowstub}
                )
            )
            await wait_for_inflight(host, port, 1)
            await server.shutdown()  # must wait for the in-flight request
            resp = await pending
            assert resp.status == 200
            assert resp.json()["source"] == "computed"
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                await Connection.open(host, port)
            await conn.close()

        run(inner())

    def test_shutdown_is_idempotent(self):
        async def inner():
            server = PartitionServer()  # owns, and closes, its engine
            await server.start()
            await server.shutdown()
            await server.shutdown()

        run(inner())

    def test_start_with_closed_engine_is_a_clear_error(self):
        async def inner():
            engine = PartitionEngine()
            engine.close()
            server = PartitionServer(engine)
            with pytest.raises(RuntimeError, match="closed"):
                await server.start()

        run(inner())


class TestServerOwnedEngine:
    def test_default_engine_is_closed_on_shutdown(self):
        async def inner():
            server = PartitionServer()
            await server.start()
            resp = await fetch(
                *server.address, "POST", "/partition",
                json.dumps({"ne": 2, "nparts": 4}).encode(),
            )
            assert resp.status == 200
            engine = server.engine
            await server.shutdown()
            assert engine.closed

        run(inner())
