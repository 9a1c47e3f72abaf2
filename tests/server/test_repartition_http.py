"""End-to-end tests for the ``POST /repartition`` service verb.

Every test runs a real server on an ephemeral port and checks that the
repartition path carries the full serving contract — plan parity with
the in-process planner, coalescing, the engine's cache (memory and
disk), validation-as-422, metrics families, and trace propagation —
exactly like ``/partition``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.partition import plan_repartition, sfc_partition
from repro.scenarios import scenario_weights
from repro.server import Connection, fetch
from repro.service import PartitionCache, PartitionEngine, PartitionRequest
from repro.telemetry import telemetry_session
from tests.server.serving import serving

NE = 4
K = 6 * NE * NE
TRACE = "ab" * 16
PARENT = "cd" * 8


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def storm_request(step: int = 3, nparts: int = 12) -> PartitionRequest:
    return PartitionRequest(
        ne=NE,
        old_assignment=sfc_partition(NE, nparts).assignment,
        weights={"scenario": "storm", "step": step},
        nparts=nparts,
    )


class TestPlanParity:
    def test_http_plan_matches_direct_planner(self):
        """The wire answer is the same plan plan_repartition computes."""
        rreq = storm_request()
        direct = plan_repartition(
            rreq.old_assignment,
            scenario_weights("storm", NE, 3),
            ne=NE,
            nparts=12,
        )

        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    resp = await conn.repartition(rreq)
                    assert resp.status == 200
                    return resp.json()

        data = run(inner())
        assert data["schema"] == 1
        assert data["source"] == "computed"
        plan = data["plan"]
        assert plan["method"] == "sfc-rebal"
        assert plan["nparts"] == 12
        assert plan["assignment"] == direct.new_assignment.tolist()
        assert plan["elements_moved"] == direct.elements_moved
        assert plan["lb_before"] == direct.lb_before
        assert plan["lb_after"] == direct.lb_after
        assert {int(r): g for r, g in plan["moves"].items()} == {
            r: g.tolist() for r, g in direct.moves.items()
        }

    def test_wire_dict_accepted_directly(self):
        """A raw JSON body (no client-side dataclass) works too."""
        body = {
            "ne": NE,
            "old_assignment": (np.arange(K) % 8).tolist(),
            "weights": np.full(K, 2.0).tolist(),
        }

        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    resp = await conn.post_json("/repartition", body)
                    assert resp.status == 200
                    return resp.json()

        data = run(inner())
        assert data["plan"]["nparts"] == 8  # inferred from old_assignment


    def test_every_route_parses_a_rebalance(self):
        """``/repartition`` is ``/partition`` with an old assignment:
        ``/partition`` and a ``/batch`` item answer the same plan, from
        the same cache entry."""
        body = storm_request().to_wire()

        async def inner():
            async with serving() as server:
                async with await Connection.open(*server.address) as conn:
                    first = await conn.post_json("/repartition", body)
                    again = await conn.post_json("/partition", body)
                    batch = await conn.post_json("/batch", [body])
                    return first.json(), again.json(), batch.json()

        first, again, batch = run(inner())
        (item,) = batch["responses"]
        assert [first["source"], again["source"], item["source"]] == [
            "computed", "memory", "memory",
        ]
        for answer in (again, item):
            assert answer["plan"] == first["plan"]
            assert answer["request"] == first["request"] == body


class TestCachingAndCoalescing:
    def test_repeat_served_from_plan_lru(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    first = (await conn.repartition(storm_request())).json()
                    second = (await conn.repartition(storm_request())).json()
            assert first["source"] == "computed"
            assert second["source"] == "memory"
            assert second["plan"] == first["plan"]

        run(inner())

    def test_plan_lands_in_the_engine_cache(self):
        async def inner():
            async with serving() as server:
                async with await Connection.open(*server.address) as conn:
                    await conn.repartition(storm_request())
                    return (await conn.request("GET", "/debug/vars")).json()

        cache = run(inner())["cache"]
        assert cache["memory_entries"] == 1
        assert cache["stores"] == 1

    def test_plan_survives_a_restart_on_disk(self, tmp_path):
        async def serve_once() -> dict:
            engine = PartitionEngine(PartitionCache(cache_dir=tmp_path))
            async with serving(engine) as server:
                async with await Connection.open(*server.address) as conn:
                    return (await conn.repartition(storm_request())).json()

        first = run(serve_once())
        second = run(serve_once())
        assert (first["source"], second["source"]) == ("computed", "disk")
        assert json.dumps(second["plan"], sort_keys=True) == json.dumps(
            first["plan"], sort_keys=True
        )
        assert second["elapsed_s"] == first["elapsed_s"]

    def test_different_steps_not_conflated(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    a = (await conn.repartition(storm_request(step=1))).json()
                    b = (await conn.repartition(storm_request(step=50))).json()
            assert a["source"] == b["source"] == "computed"
            assert a["plan"]["assignment"] != b["plan"]["assignment"]

        run(inner())

    def test_concurrent_identical_requests_coalesce(self):
        """Concurrent duplicates share one compute: exactly one
        ``computed`` answer, the rest ``coalesced``/``memory``."""

        async def inner():
            async with serving() as server:
                host, port = server.address

                async def one():
                    async with await Connection.open(host, port) as conn:
                        return (await conn.repartition(storm_request())).json()

                results = await asyncio.gather(*(one() for _ in range(6)))
            sources = [r["source"] for r in results]
            assert sources.count("computed") == 1
            assert set(sources) <= {"computed", "coalesced", "memory"}
            plans = {json.dumps(r["plan"], sort_keys=True) for r in results}
            assert len(plans) == 1  # every caller got the same plan

        run(inner())


class TestHashedOnce:
    def test_each_request_object_is_hashed_once(self, monkeypatch):
        """A served /repartition, a computed /partition and its warm
        repeat hash each request object once, where the server used to
        re-hash the old assignment at every cache_key() call."""
        import repro.service.requests as requests_mod

        hashed: list[dict] = []
        sha256_json = requests_mod._sha256_json

        def counting(payload: dict) -> str:
            hashed.append(payload)
            return sha256_json(payload)

        repartition = storm_request().to_wire()
        partition = {"ne": NE, "nparts": 8}
        monkeypatch.setattr(requests_mod, "_sha256_json", counting)

        async def inner():
            async with serving() as server:
                async with await Connection.open(*server.address) as conn:
                    plan = (await conn.repartition(repartition)).json()
                    cold = (await conn.partition(partition)).json()
                    warm = (await conn.partition(partition)).json()
            return plan["source"], cold["source"], warm["source"]

        assert run(inner()) == ("computed", "computed", "memory")
        kinds = [p.get("kind", "partition") for p in hashed]
        assert kinds == ["repartition", "partition", "partition"]


class TestValidation:
    async def _post(self, body: dict) -> tuple[int, dict]:
        async with serving() as server:
            host, port = server.address
            async with await Connection.open(host, port) as conn:
                resp = await conn.post_json("/repartition", body)
                return resp.status, resp.json()

    def test_negative_weights_422(self):
        w = np.ones(K)
        w[7] = -2.0
        status, data = run(self._post({
            "ne": NE,
            "old_assignment": [0] * K,
            "weights": w.tolist(),
        }))
        assert status == 422
        assert data["error"]["code"] == "invalid_request"
        assert "positive; entry 7" in data["error"]["message"]

    def test_nan_weights_422(self):
        status, data = run(self._post({
            "ne": NE,
            "old_assignment": [0] * K,
            "weights": ["nan"] + [1.0] * (K - 1),
        }))
        assert status == 422
        assert "finite" in data["error"]["message"]

    def test_wrong_length_weights_422(self):
        status, data = run(self._post({
            "ne": NE,
            "old_assignment": [0] * K,
            "weights": [1.0, 2.0],
        }))
        assert status == 422
        assert f"expected {K}, got 2" in data["error"]["message"]

    def test_unknown_scenario_422_with_hint(self):
        status, data = run(self._post({
            "ne": NE,
            "old_assignment": [0] * K,
            "weights": {"scenario": "strom"},
        }))
        assert status == 422
        assert "did you mean 'storm'" in data["error"]["message"]

    def test_missing_weights_422(self):
        status, data = run(self._post({"ne": NE, "old_assignment": [0] * K}))
        assert status == 422
        assert "weights" in data["error"]["message"]

    def test_a_partition_body_is_422_here(self):
        """Only ``/repartition`` insists on the rebalance fields."""
        body = {"ne": NE, "nparts": 4, "weights": [1.0] * K}
        status, data = run(self._post(body))
        assert status == 422
        assert data["error"]["message"] == (
            "repartition needs 'ne', 'old_assignment' and 'weights' "
            "(missing: ['old_assignment'])"
        )
        status, data = run(self._post({**body, "old_assignment": None}))
        assert status == 422
        assert "(missing: ['old_assignment'])" in data["error"]["message"]

    def test_unweighted_method_422_names_weighted_ones(self):
        status, data = run(self._post({
            "ne": NE,
            "old_assignment": [0] * K,
            "weights": [1.0] * K,
            "method": "block",
        }))
        assert status == 422
        assert "does not support per-element weights" in data["error"]["message"]
        assert "sfc" in data["error"]["message"]

    def test_non_object_body_400(self):
        status, data = run(self._post([1, 2, 3]))
        assert status == 400
        assert data["error"]["code"] == "bad_json"

    def test_404_hint_lists_repartition(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                resp = await fetch(host, port, "GET", "/nope")
                assert resp.status == 404
                assert "/repartition" in resp.json()["error"]["message"]

        run(inner())


class TestObservability:
    def test_identity_headers_and_trace_continuation(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    resp = await conn.request(
                        "POST",
                        "/repartition",
                        json.dumps(storm_request().to_wire()).encode(),
                        headers={
                            "Content-Type": "application/json",
                            "traceparent": f"00-{TRACE}-{PARENT}-01",
                        },
                    )
                    assert resp.status == 200
                    assert resp.headers["traceparent"].split("-")[1] == TRACE
                    data = resp.json()
                    assert data["trace_id"] == TRACE
                    assert data["request_id"] == resp.headers["x-request-id"]
                    assert data["request_id"] != PARENT

        run(inner())

    def test_metrics_families_recorded(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    await conn.repartition(storm_request())
                    await conn.repartition(storm_request())  # LRU hit
                    text = (await conn.request("GET", "/metrics")).body.decode()
            assert 'server_repartition_total{' in text
            assert 'source="computed"' in text
            assert 'source="memory"' in text
            assert "server_repartition_cache_hits 1" in text
            assert "repartition_lb_after_count" in text
            assert "repartition_fraction_moved_count" in text

        run(inner())

    def test_engine_stats_count_repartitions(self):
        """RepartitionResponses flow through the shared ServiceStats."""
        with telemetry_session():
            async def inner():
                engine = PartitionEngine()
                async with serving(engine) as server:
                    host, port = server.address
                    async with await Connection.open(host, port) as conn:
                        await conn.repartition(storm_request())
                    return engine.stats.total_requests

            assert run(inner()) == 1

    def test_debug_requests_ring_sees_repartition(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    await conn.repartition(storm_request())
                    ring = (await conn.request(
                        "GET", "/debug/requests"
                    )).json()["requests"]
            entries = [r for r in ring if r["path"] == "/repartition"]
            assert entries and entries[-1]["status"] == 200
            assert entries[-1]["source"] == "computed"

        run(inner())

    def test_methods_lists_scenarios(self):
        async def inner():
            async with serving() as server:
                host, port = server.address
                resp = await fetch(host, port, "GET", "/methods")
                return resp.json()

        data = run(inner())
        names = {s["name"] for s in data["scenarios"]}
        assert {"storm", "daynight", "amr"} <= names
        storm = next(s for s in data["scenarios"] if s["name"] == "storm")
        assert "amplitude" in storm["params"]
