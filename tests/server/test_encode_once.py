"""Encode once: a reused answer's body is its cache entry's template.

The server encodes a computed answer whole.  A memory or disk hit, or
a coalesced joiner, splices its ``request_id``, ``source`` and
``trace_id`` into the body its cache entry encoded on first reuse.
These tests pin that such a body is byte for byte the whole encoding,
``json_body(_stamp_identity(to_payload()))``, for both request kinds,
weighted or not, from every source; that a computed answer is encoded
exactly once; and that an entry holds one template however often it is
hit, and none once it is evicted.
"""

from __future__ import annotations

import asyncio
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.server.app as app
import repro.server.http as http
from repro.server import Connection, PartitionServer, fetch
from repro.server.http import json_body
from repro.service import (
    PartitionCache,
    PartitionEngine,
    PartitionRequest,
)
from repro.service.cache import encoded_body
from repro.telemetry import RequestContext, request_context
from tests.server.serving import serving

PARTITION = {"ne": 2, "nparts": 4, "method": "rb"}
OTHER = {"ne": 2, "nparts": 6}


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def whole(response, request_id: str, trace_id: str, source: str) -> bytes:
    """The body as the server encoded every answer before templates."""
    payload = response.with_source(source).to_payload()
    return json_body({**payload, "request_id": request_id, "trace_id": trace_id})


def ids_of(resp) -> tuple[str, str]:
    """``(request_id, trace_id)`` from a response's headers."""
    _, trace_id, request_id, _ = resp.headers["traceparent"].split("-")
    assert request_id == resp.headers["x-request-id"]
    return request_id, trace_id


@pytest.fixture()
def count_json_body(monkeypatch):
    """Every ``json_body`` call the server makes, templates included."""
    calls: list[object] = []
    real = http.json_body

    def counting(payload):
        calls.append(payload)
        return real(payload)

    monkeypatch.setattr(app, "json_body", counting)
    monkeypatch.setattr(http, "json_body", counting)
    return calls


# -- the property: every source, both kinds, weighted or not ------------

ids = st.text(max_size=12)


@st.composite
def requests(draw):
    ne = draw(st.sampled_from((2, 3, 4)))
    k = 6 * ne * ne
    nparts = draw(st.integers(1, 12))
    weights = draw(
        st.one_of(
            st.none(),
            st.just({"scenario": "storm", "step": draw(st.integers(0, 5))}),
            st.lists(
                st.floats(0.5, 4.0, allow_nan=False), min_size=k, max_size=k
            ),
        )
    )
    if draw(st.booleans()):
        old = draw(st.lists(st.integers(0, nparts - 1), min_size=k, max_size=k))
        return PartitionRequest(
            ne=ne, old_assignment=old, nparts=nparts,
            weights=weights if weights is not None else [1.0] * k,
        )
    method = "sfc" if weights is not None else draw(st.sampled_from(("sfc", "rb")))
    return PartitionRequest(ne=ne, nparts=nparts, method=method, weights=weights)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(request=requests(), id_pairs=st.lists(st.tuples(ids, ids), min_size=6, max_size=6))
def test_every_source_encodes_to_the_whole_body(request, id_pairs):
    with tempfile.TemporaryDirectory() as cache_dir:
        engine = PartitionEngine(PartitionCache(cache_dir=cache_dir))
        computed = engine.serve(request)
        memory = engine.cache.get(request)
        disk = PartitionCache(cache_dir=cache_dir).get(request)
    server = PartitionServer(engine)  # never started: no pool, no socket
    answers = (
        computed,
        computed.with_source("coalesced"),  # what a joiner gets
        memory,
        memory,
        disk,
        disk,
    )
    assert [a.source for a in answers] == [
        "computed", "coalesced", "memory", "memory", "disk", "disk",
    ]
    for answer, (request_id, trace_id) in zip(answers, id_pairs):
        ctx = RequestContext(trace_id=trace_id, request_id=request_id)
        with request_context(ctx):
            body = server._encode(answer)
            assert body == json_body(server._stamp_identity(answer.to_payload()))
        if answer is computed:
            assert encoded_body(computed).template is None
    # One template per entry: the joiner filled the one memory hits use.
    assert encoded_body(memory) is encoded_body(computed)
    assert encoded_body(memory).template is not None
    assert encoded_body(disk).template is not None


# -- over HTTP ----------------------------------------------------------


class TestServedBodies:
    def test_hits_and_joiners_match_the_whole_encoding(
        self, slowstub, count_json_body
    ):
        """One encode for the compute, one template for five joiners and
        three memory hits, and every body the whole encoding's bytes."""
        payload = {"ne": 2, "nparts": 4, "method": slowstub}

        async def inner():
            async with serving() as server:
                host, port = server.address

                async def one():
                    async with await Connection.open(host, port) as conn:
                        return await conn.post_json("/partition", payload)

                burst = await asyncio.gather(*(one() for _ in range(6)))
                async with await Connection.open(host, port) as conn:
                    hits = [await conn.post_json("/partition", payload) for _ in range(3)]
                cached = server.engine.cache.get(PartitionRequest.from_dict(payload))
                return burst + hits, cached, server.engine.cache.stats()

        answers, cached, stats = run(inner())
        sources = sorted(r.json()["source"] for r in answers)
        assert sources == ["coalesced"] * 5 + ["computed"] + ["memory"] * 3
        for resp in answers:
            assert resp.body == whole(cached, *ids_of(resp), resp.json()["source"])
        assert len(count_json_body) == 2  # the compute, then one template
        assert stats["encoded_bytes"] == encoded_body(cached).nbytes > 0

    def test_one_encode_per_computed_request(self, count_json_body):
        async def inner():
            async with serving() as server:
                async with await Connection.open(*server.address) as conn:
                    for ne in (2, 3, 4):
                        resp = await conn.post_json("/partition", {"ne": ne, "nparts": 4})
                        assert resp.json()["source"] == "computed"
                return server.engine.cache.stats()

        stats = run(inner())
        assert len(count_json_body) == 3
        assert stats["encoded_bytes"] == 0  # nothing re-asked, nothing held

    def test_plan_memory_hit_and_disk_hit(self, tmp_path):
        k = 6 * 4 * 4
        plan = PartitionRequest(
            ne=4, old_assignment=np.arange(k) % 8, nparts=8,
            weights={"scenario": "storm", "step": 2},
        )

        async def serve_twice():
            engine = PartitionEngine(PartitionCache(cache_dir=tmp_path))
            async with serving(engine) as server:
                async with await Connection.open(*server.address) as conn:
                    answers = [await conn.repartition(plan) for _ in range(2)]
            return answers, engine.cache.get(plan)

        first, cached = run(serve_twice())
        second, _ = run(serve_twice())  # a new server on the same cache_dir
        answers = first + second
        assert [r.json()["source"] for r in answers] == [
            "computed", "memory", "disk", "memory",
        ]
        for resp in answers:
            assert resp.body == whole(cached, *ids_of(resp), resp.json()["source"])

    def test_eviction_drops_the_template(self):
        async def inner():
            engine = PartitionEngine(PartitionCache(capacity=1))
            async with serving(engine) as server:
                cache = server.engine.cache
                async with await Connection.open(*server.address) as conn:
                    await conn.post_json("/partition", PARTITION)
                    await conn.post_json("/partition", PARTITION)
                    slot = encoded_body(cache.get(PartitionRequest.from_dict(PARTITION)))
                    held = cache.stats()["encoded_bytes"]
                    assert held == slot.nbytes > 0
                    await conn.post_json("/partition", OTHER)  # evicts PARTITION
                    assert slot.template is None
                    assert cache.stats()["encoded_bytes"] == 0
                    again = await conn.post_json("/partition", PARTITION)
                    assert again.json()["source"] == "computed"
                    assert cache.stats()["encoded_bytes"] == 0
                    await conn.post_json("/partition", PARTITION)
                    return cache.stats()["encoded_bytes"]

        assert run(inner()) > 0  # the new entry's first reuse fills its own

    def test_batch_and_fresh_plans_hold_no_bytes(self):
        """``/batch`` encodes whole, and a trajectory of distinct plans
        (each computed once) fills no template."""
        k = 6 * 4 * 4

        async def inner():
            async with serving() as server:
                async with await Connection.open(*server.address) as conn:
                    await conn.post_json("/batch", [PARTITION, PARTITION, OTHER])
                    await conn.post_json("/batch", [PARTITION])
                    old = np.arange(k) % 8
                    for step in range(1, 4):
                        resp = await conn.repartition(
                            PartitionRequest(
                                ne=4, old_assignment=old, nparts=8,
                                weights={"scenario": "storm", "step": step},
                            )
                        )
                        assert resp.json()["source"] == "computed"
                        old = np.asarray(resp.json()["plan"]["assignment"])
                vars_ = (await fetch(*server.address, "GET", "/debug/vars")).json()
                return vars_["cache"]

        cache = run(inner())
        assert cache["memory_entries"] == 5
        assert cache["encoded_bytes"] == 0

    def test_debug_vars_reports_encoded_bytes(self):
        async def inner():
            async with serving() as server:
                async with await Connection.open(*server.address) as conn:
                    for _ in range(3):
                        await conn.post_json("/partition", PARTITION)
                vars_ = (await fetch(*server.address, "GET", "/debug/vars")).json()
                slot = encoded_body(
                    server.engine.cache.get(PartitionRequest.from_dict(PARTITION))
                )
                return vars_["cache"]["encoded_bytes"], slot.nbytes

        reported, held = run(inner())
        assert reported == held > 0


def test_serving_closes_its_engine():
    async def inner():
        async with serving() as server:
            engine = server.engine
            assert not engine.closed
        return engine

    assert run(inner()).closed

