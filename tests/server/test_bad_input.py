"""Bad input gets a 4xx from every POST route, never a 500.

Each probe once escaped request validation as a ``TypeError``,
``OverflowError`` or ``RecursionError`` and was answered ``500``.
A falsy schedule that is not a string (``0``, ``false``, ``[]``,
``{}``) was once served as the default curve.  Bodies that are not JSON
(nested past the decoder's recursion limit)
are a ``400 bad_json``; JSON that is not a valid request is a ``422``,
per item for ``/batch``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.server import Connection
from tests.server.serving import serving

K = 24  # ne=2
STORM = {"scenario": "storm", "step": 1}
#: Schedules that are not strings, yet falsy: once served as the default.
FALSY = [0, False, [], {}]

#: Partition request objects that are JSON but not valid requests.
PARTITION_422 = [
    {"ne": [1], "nparts": 2},
    {"ne": None, "nparts": 2},
    {"ne": 2, "nparts": 2, "seed": {}},
    {"ne": 2, "nparts": 4, "weights": [10**400] * K},
    {"ne": 2, "nparts": 4, "weights": {"inline": {}}},
    {"ne": 2, "nparts": 4, "weights": {**STORM, "params": {"lat0": 10**400}}},
    {"ne": 2, "nparts": 4, "weights": [1e308] * (K - 1) + [1.0]},
    {"ne": 2.9, "nparts": 4},
    {"ne": 2, "nparts": 4.7},
    {"ne": 2, "nparts": 4, "seed": True},
    {"ne": 2, "nparts": 4, "method": "kway", "seed": -5},
    {"ne": 2, "nparts": 4, "method": "random", "seed": -1},
    *({"ne": 2, "nparts": 2, "schedule": falsy} for falsy in FALSY),
]

#: Repartition request objects that are JSON but not valid requests.
REPARTITION_422 = [
    {"ne": [1], "old_assignment": [0] * K, "weights": STORM},
    {"ne": None, "old_assignment": [0] * K, "weights": STORM},
    {"ne": 2, "seed": {}, "old_assignment": [0] * K, "weights": STORM},
    {"ne": 2, "nparts": [2], "old_assignment": [0] * K, "weights": STORM},
    {"ne": 2.0, "old_assignment": [0] * K, "weights": STORM},
    {"ne": 2, "seed": False, "old_assignment": [0] * K, "weights": STORM},
    {"ne": 2, "old_assignment": [2**63] + [0] * (K - 1), "weights": STORM},
    {"ne": 2, "old_assignment": [-(2**64)] + [0] * (K - 1), "weights": STORM},
    {"ne": 2, "old_assignment": [0] * K, "weights": [10**400] * K},
    {"ne": 2, "old_assignment": [0] * K, "weights": [1e308] * (K - 1) + [1.0]},
    *(
        {"ne": 2, "old_assignment": [0] * K, "weights": STORM, "schedule": falsy}
        for falsy in FALSY
    ),
]

DEEP = b"[" * 100_000


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def post_all(path: str, bodies: list[bytes]) -> list[tuple[int, object]]:
    """POST each body to ``path`` on one server: (status, JSON answer)."""

    async def inner():
        async with serving() as server:
            async with await Connection.open(*server.address) as conn:
                out = []
                for body in bodies:
                    resp = await conn.request("POST", path, body)
                    out.append((resp.status, resp.json()))
                return out

    return run(inner())


def encode(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def assert_error(status: int, data, want: int, code: str) -> None:
    assert status == want, data
    assert data["error"]["status"] == want
    assert data["error"]["code"] == code


@pytest.mark.parametrize(
    "path, probes",
    [("/partition", PARTITION_422), ("/repartition", REPARTITION_422)],
)
def test_invalid_requests_are_422_and_deep_nesting_400(path, probes):
    answers = post_all(path, [encode(p) for p in probes] + [DEEP])
    for status, data in answers[:-1]:
        assert_error(status, data, 422, "invalid_request")
    assert_error(*answers[-1], 400, "bad_json")


def test_batch_items_are_422_each_and_deep_nesting_400():
    ok = {"ne": 2, "nparts": 4}
    (status, data), deep = post_all(
        "/batch", [encode({"requests": [ok, *PARTITION_422]}), DEEP]
    )
    assert status == 200
    first, *items = data["responses"]
    assert first["source"] in ("computed", "memory")
    assert len(items) == len(PARTITION_422)
    for item in items:
        assert item["error"]["status"] == 422
        assert item["error"]["code"] == "invalid_request"
    assert_error(*deep, 400, "bad_json")

