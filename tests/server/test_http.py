"""Unit tests for the minimal HTTP/1.1 framing layer."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.http import (
    HTTPError,
    decode_json_body,
    error_body,
    json_body,
    read_request,
    render_response,
)


def parse(data: bytes):
    """Run read_request over a pre-fed stream."""

    async def inner():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(inner())


class TestReadRequest:
    def test_get(self):
        req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/healthz"
        assert req.headers["host"] == "x"
        assert req.body == b""
        assert req.keep_alive

    def test_post_with_body(self):
        body = b'{"ne": 4, "nparts": 8}'
        req = parse(
            b"POST /partition HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        assert req.method == "POST"
        assert req.body == body

    def test_query_string_stripped(self):
        req = parse(b"GET /metrics?format=prom HTTP/1.1\r\n\r\n")
        assert req.path == "/metrics"

    def test_connection_close(self):
        req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_bad_request_line(self):
        with pytest.raises(HTTPError) as err:
            parse(b"NOT A REQUEST\r\n\r\n")
        assert err.value.status == 400

    def test_bad_version(self):
        with pytest.raises(HTTPError) as err:
            parse(b"GET / HTTP/2.0\r\n\r\n")
        assert err.value.status == 400

    def test_post_without_length(self):
        with pytest.raises(HTTPError) as err:
            parse(b"POST /partition HTTP/1.1\r\n\r\n")
        assert err.value.status == 411

    def test_chunked_rejected(self):
        with pytest.raises(HTTPError) as err:
            parse(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert err.value.status == 501

    def test_oversized_body_rejected(self):
        with pytest.raises(HTTPError) as err:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
        assert err.value.status == 413

    def test_truncated_body(self):
        with pytest.raises(HTTPError) as err:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert err.value.status == 400

    def test_malformed_header(self):
        with pytest.raises(HTTPError) as err:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert err.value.status == 400


class TestRenderResponse:
    def test_roundtrip_fields(self):
        raw = render_response(200, b'{"ok": 1}', headers={"Retry-After": "1"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 9" in head
        assert b"Retry-After: 1" in head
        assert b"Connection: keep-alive" in head
        assert body == b'{"ok": 1}'

    def test_close_header(self):
        raw = render_response(503, b"{}", keep_alive=False)
        assert b"Connection: close" in raw

    def test_error_body_structure(self):
        exc = HTTPError(503, "overloaded", "busy", {"Retry-After": "2"})
        data = json.loads(error_body(exc))
        assert data["error"] == {
            "status": 503,
            "code": "overloaded",
            "message": "busy",
        }


# -- json_body: arrays encoded natively, bytes as json.dumps of lists ------

_INT64 = st.integers(-(2**63), 2**63 - 1)
_EDGES = st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 9, 10, 2**63 - 1])
_ARRAYS = st.lists(st.one_of(_INT64, _EDGES), max_size=40).map(
    lambda values: np.array(values, dtype=np.int64)
)
#: Keys that sort next to each other and to the array fields, and the
#: skeleton's own mark (a string "\x00"), which must not be mistaken
#: for an array.
_KEYS = st.sampled_from(
    ["a", "assignment", "assignment_", "b", "moves", "old_assignment",
     "z", "\x00", '"', ""]
)
_LEAVES = st.one_of(
    _ARRAYS,
    st.none(),
    st.booleans(),
    _INT64,
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.sampled_from(["\x00", '"\x00"', 'a"\x00', "\x00\x00"]),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=5)
    ),
    max_leaves=12,
)


def _lists(obj):
    """The payload with every array as the list ``.tolist()`` gives."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_lists(v) for v in obj]
    return obj


def _expected(payload) -> bytes:
    return json.dumps(_lists(payload), sort_keys=True).encode("utf-8")


class TestJsonBody:
    @settings(max_examples=300, deadline=None)
    @given(_ARRAYS)
    def test_array_text_matches_json_dumps(self, arr):
        assert json_body({"assignment": arr}) == _expected({"assignment": arr})
        assert json_body([arr]) == _expected([arr])

    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    def test_nested_payloads_match_json_dumps(self, payload):
        assert json_body(payload) == _expected(payload)

    def test_int64_range_edges(self):
        arr = np.array([-(2**63), 2**63 - 1, 0, -1], dtype=np.int64)
        body = json_body({"a": arr})
        assert body == b'{"a": [-9223372036854775808, 9223372036854775807, 0, -1]}'

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(5, dtype=np.int32),
            np.arange(5, dtype=np.uint8),
            np.linspace(0.0, 1.0, 4),
            np.array([True, False]),
            np.arange(6, dtype=np.int64).reshape(2, 3),
            np.arange(10, dtype=np.int64)[::3],
            np.arange(3, dtype=">i8"),
            np.array(7, dtype=np.int64),
        ],
    )
    def test_other_arrays_go_through_tolist(self, arr):
        payload = {"x": arr, "y": np.arange(3, dtype=np.int64)}
        assert json_body(payload) == _expected(payload)

    def test_mark_string_in_payload(self):
        payload = {"\x00": "\x00", "a": np.arange(3, dtype=np.int64)}
        assert json_body(payload) == _expected(payload)

    def test_unencodable_object_still_raises(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_body({"a": np.arange(2, dtype=np.int64), "b": object()})

    def test_partition_response_payload(self):
        from repro.service import PartitionRequest, compute_response

        resp = compute_response(PartitionRequest(ne=4, nparts=12, method="rb"))
        data = resp.to_payload()
        data["request_id"] = "r1"
        want = resp.to_dict()
        want["request_id"] = "r1"
        assert json_body(data) == json.dumps(want, sort_keys=True).encode()

    def test_repartition_response_payload(self):
        from repro.partition.sfc import sfc_partition
        from repro.service import PartitionRequest
        from repro.service.engine import compute_response

        old = sfc_partition(4, 8).assignment
        resp = compute_response(
            PartitionRequest(
                ne=4,
                old_assignment=old,
                weights={"scenario": "storm", "step": 3},
            )
        )
        assert resp.plan.elements_moved > 0
        assert json_body(resp.to_payload()) == json.dumps(
            resp.to_dict(), sort_keys=True
        ).encode()

    def test_batch_payload(self):
        from repro.service import PartitionRequest, compute_response

        responses = [
            compute_response(PartitionRequest(ne=2, nparts=n, method=m))
            for n, m in ((4, "sfc"), (6, "kway"), (3, "block"))
        ]
        error = json.loads(error_body(HTTPError(422, "invalid_request", "no")))
        data = {"schema": 1, "responses": [r.to_payload() for r in responses]}
        data["responses"].append(error)
        want = {"schema": 1, "responses": [r.to_dict() for r in responses]}
        want["responses"].append(error)
        assert json_body(data) == json.dumps(want, sort_keys=True).encode()


# -- decode_json_body: int arrays parsed natively, values as json.loads ----


class _Obj:
    """A JSON object as (key, value) pairs, so keys may repeat."""

    def __init__(self, pairs) -> None:
        self.pairs = list(pairs)


def _text(doc, ws: str, ascii_only: bool) -> str:
    """JSON text of a document, with ``ws`` around every token."""
    if isinstance(doc, _Obj):
        return (
            "{" + ws
            + f"{ws},{ws}".join(
                json.dumps(k, ensure_ascii=ascii_only) + f"{ws}:{ws}"
                + _text(v, ws, ascii_only)
                for k, v in doc.pairs
            )
            + ws + "}"
        )
    if isinstance(doc, list):
        return (
            "[" + ws
            + f"{ws},{ws}".join(_text(v, ws, ascii_only) for v in doc)
            + ws + "]"
        )
    return json.dumps(doc, ensure_ascii=ascii_only)


#: Ints at and beyond the int64 edges, and a big one.
_ANY_INT = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, -(2**63) - 1, 2**63, 10**30, 0, -1]),
)
_INT_LISTS = st.lists(_ANY_INT, max_size=6)
#: Strings holding every byte the kernel's scan looks at.
_TRICKY = st.text(alphabet='ab[]:,"\\\x00 u0{}é', max_size=8)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _ANY_INT, _TRICKY,
    st.floats(allow_nan=False, allow_infinity=False),
)
_FIELDS = st.sampled_from(
    ["old_assignment", "weights", "inline", "requests", "ne", "params", "a"]
)
_VALUES = st.recursive(
    st.one_of(_SCALARS, _INT_LISTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.tuples(st.one_of(_FIELDS, _TRICKY), inner), max_size=4).map(
            _Obj
        ),
    ),
    max_leaves=10,
)
_WEIGHTS = st.one_of(
    _INT_LISTS,
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
    _INT_LISTS.map(lambda v: _Obj([("inline", v)])),
    _VALUES,
)
_REQUESTS = st.lists(
    st.one_of(
        st.tuples(st.just("old_assignment"), st.one_of(_INT_LISTS, _VALUES)),
        st.tuples(st.just("weights"), _WEIGHTS),
        st.tuples(_FIELDS, _VALUES),
    ),
    max_size=5,
).map(_Obj)
_BODIES = st.one_of(
    _REQUESTS,
    st.lists(_REQUESTS, max_size=3),
    st.tuples(st.lists(_REQUESTS, max_size=3), _REQUESTS).map(
        lambda t: _Obj([("requests", t[0]), *t[1].pairs])
    ),
    _VALUES,
)


def _outcome(decode, body: bytes):
    try:
        return decode(body)
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        return (type(exc), str(exc))


def _plain(body: bytes):
    return json.loads(body.decode("utf-8"))


def _assert_same(got, want, key=None) -> None:
    """``got`` is ``want``, types included, but for int64 arrays at a
    request's array fields, which must hold ``want``'s values."""
    if isinstance(got, np.ndarray):
        assert key in ("old_assignment", "weights", "inline")
        assert got.dtype == np.int64 and got.ndim == 1
        assert type(want) is list and all(type(v) is int for v in want)
        assert got.tolist() == want
        return
    assert type(got) is type(want)
    if isinstance(got, dict):
        assert list(got) == list(want)
        for k in got:
            _assert_same(got[k], want[k], k)
    elif isinstance(got, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want


class TestDecodeJsonBody:
    @settings(max_examples=400, deadline=None)
    @given(_BODIES, st.sampled_from(["", " ", "\n", "\t", " \r\n "]), st.booleans())
    def test_request_bodies_decode_as_json_loads(self, doc, ws, ascii_only):
        body = _text(doc, ws, ascii_only).encode("utf-8")
        _assert_same(decode_json_body(body), _plain(body))

    @settings(max_examples=300, deadline=None)
    @given(_BODIES, st.data())
    def test_malformed_bodies_raise_as_json_loads(self, doc, data):
        body = _text(doc, " ", False).encode("utf-8")
        at = data.draw(st.integers(0, len(body)))
        edit = data.draw(
            st.sampled_from([b"", b",", b"]", b"[", b":", b'"', b"\xff", b"01"])
        )
        cut = data.draw(st.integers(0, 2))
        body = body[:at] + edit + body[at + cut :]
        got, want = _outcome(decode_json_body, body), _outcome(_plain, body)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same(got, want)

    def test_rebalance_body_takes_the_native_path(self):
        """The kernel finds the old assignment past a string whose
        escaped quote and backslash a naive scan would misread."""
        old = np.arange(1536, dtype=np.int64) % 16
        body = json.dumps(
            {"ne": 16, "method": 'a"[:1]\\', "old_assignment": old.tolist(),
             "weights": {"scenario": "storm", "step": 3}}
        ).encode()
        data = decode_json_body(body)
        assert isinstance(data["old_assignment"], np.ndarray)
        _assert_same(data, _plain(body))

    @pytest.mark.parametrize(
        "body",
        [
            b'{"old_assignment": [9223372036854775807, -9223372036854775808]}',
            b'{"old_assignment": [9223372036854775808]}',
            b'{"old_assignment": [-9223372036854775809]}',
            b'{"old_assignment": [-0, 0]}',
            b'{"old_assignment": [1.0]}',
            b'{"old_assignment": [1e3]}',
            b'{"old_assignment": [01]}',
            b'{"old_assignment": [1,]}',
            b'{"old_assignment": [-]}',
            b'{"old_assignment": []}',
            b'{"old_assignment": [[1]]}',
            b'{"old_assignment": [1], "old_assignment": [2]}',
            b'{"old_assignment": [1], "x": "\\u0000"}',
            b'{"old_assignment": [1], "x": "\\\\u0000"}',
            b'{"old_assignment": [1], "x": "\\"[1]:"}',
            b'{"weights": {"inline": [1, 2]}, "params": {"a": [3]}}',
            b'[{"weights": [1, 2]}, {"old_assignment": [3]}, 4]',
            b'{"requests": [{"old_assignment": [1]}], "weights": [2]}',
            b'{"old_assignment": [1]',
            b'{"old_assignment" [1]}',
            b"[" * 100_000,
        ],
    )
    def test_edge_cases_decode_as_json_loads(self, body):
        got, want = _outcome(decode_json_body, body), _outcome(_plain, body)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same(got, want)
