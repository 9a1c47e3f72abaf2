"""Pinned wire contract: cache keys, canonical forms and response bodies.

The probe set covers every registered method, unweighted and (where the
method takes weights) weighted, plus a rebalance with scenario weights
and one with inline weights.  For each probe the test pins

* ``cache_key()`` and the ``canonical()`` dict — the disk store compares
  ``canonical()`` against each entry, so equal forms mean entries
  written by an earlier build still hit;
* the SHA-256 of the response body, in process (``to_dict()``) and as
  served (:func:`~repro.server.http.json_body` of ``to_payload()``,
  stamped with ids as the server stamps them).

``elapsed_s``, ``request_id`` and ``trace_id`` are masked.  A change to
any pinned value changes what clients or the disk cache see.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.partition import registry
from repro.partition.pipeline import cache_version
from repro.server.http import json_body
from repro.service import PartitionRequest

K = 24  # ne=2
INLINE = [1.0 + (i % 5) / 4 for i in range(K)]
OLD = [4 * i // K for i in range(K)]

#: Probe name -> wire object.
PROBES = {
    **{
        method: {"ne": 2, "nparts": 4, "method": method}
        for method in ("sfc", "morton", "rcb", "block", "strided")
    },
    **{
        method: {"ne": 2, "nparts": 4, "method": method, "seed": 3}
        for method in ("rb", "kway", "tv", "random")
    },
    "sfc-schedule": {"ne": 2, "nparts": 6, "schedule": "H"},
    "sfc-inline": {"ne": 2, "nparts": 4, "weights": INLINE},
    "sfc-scenario": {
        "ne": 2, "nparts": 4,
        "weights": {"scenario": "storm", "step": 2, "params": {"amplitude": 3.0}},
    },
    "morton-inline": {"ne": 2, "nparts": 4, "method": "morton", "weights": INLINE},
    "morton-scenario": {
        "ne": 2, "nparts": 3, "method": "morton", "weights": {"scenario": "storm"},
    },
    "rebalance-scenario": {
        "ne": 2, "old_assignment": OLD, "weights": {"scenario": "storm", "step": 3},
    },
    "rebalance-inline": {
        "ne": 2, "nparts": 6, "method": "morton", "seed": 1,
        "old_assignment": OLD, "weights": INLINE,
    },
}

INLINE_SHA = "4a2ba02f3d63399f6fb947e160ebfc39fcbf4ce4590b2984495be9a19a0acf99"
OLD_SHA = "b712b461082675ff9abb37d124bf685fbff24d77ac2e559f6b875e4da33a606f"
REBALANCE = {"kind": "repartition", "old_sha256": OLD_SHA}


def canonical(method="sfc", nparts=4, seed=0, schedule=None, weights=None, **extra):
    """A pinned canonical form at ne=2; ``weights`` is ``"inline"`` (the
    digest of :data:`INLINE`) or the fields of a storm scenario."""
    out = {
        "method": method, "ne": 2, "nparts": nparts,
        "schedule": schedule, "seed": seed, **extra,
    }
    if weights == "inline":
        out["weights"] = {"inline": {"n": K, "sha256": INLINE_SHA}}
    elif weights is not None:
        out["weights"] = {"scenario": "storm", "params": {}, "step": 0, **weights}
    return out


#: Probe name -> (cache key, canonical(), to_dict() body digest, served
#: body digest).
PINS = {
    "block": (
        "5ab650ddff82db6d74c6d1b58e93bef66624d22d5e38508318151a4cf796ca90",
        canonical("block"),
        "28c6d50afeeb0c74d5eb425cab992c6b98fe0c42d04b6b929e9b8656029399d1",
        "0d87c49df1019f84872965be09ce63ec77f1b1dd23bae8a646e4bca6c4d37037",
    ),
    "kway": (
        "59c73bc98bc5587c45081bc9db9df5b0fb5f46d15e2606d5a12784ace8fb9cbc",
        canonical("kway", seed=3),
        "2edda9fde3368b11afadf44a5c7c1c8e8f3c22403a6dc6d5cea564e330db67c0",
        "cd946b6eead50b6f39bdd4fa9f608e8d29ffbdf1a97c489b78ff2715c9d83772",
    ),
    "morton": (
        "1a4fde8a21b3fdbea30c3ec7aa7f885574416dcd258092f98de26ec67a92e957",
        canonical("morton"),
        "72ef09d7efb7da52ffa9794f07ef95f85d80a2dd702579b08d05a0bf980a0afd",
        "2b4968d0d6f8f2c5ce9834c9857a3d2b52c18c48057b06c3bc810905be7c9b1b",
    ),
    "morton-inline": (
        "0c5aa29b93fb15e179d845b032b585a85793caaabaa2975d0ec9eec9c7058b14",
        canonical("morton", weights="inline"),
        "9bc6eeeb8277a0be2dbc3701d5e1139c7841994fc87b4e0af750c6ccfbdc5131",
        "2b841e2fa063a2b0e3995e702920dfb473f0ff84bc9c9da10da5e95fea80bd25",
    ),
    "morton-scenario": (
        "0a977a5eac4a4669b640a23a4aaab63ff097637fe7d0c9e677ad4d912b377744",
        canonical("morton", nparts=3, weights={}),
        "da3a911c8fef3ad1e251b9db9a8254d379dba8967ab95ffd32ec5f89d4f9e8c5",
        "c0776d4312a6a739c7b081ca33cf0e2992ea610fb319f333f0a0bbe6e9a3a6a4",
    ),
    "random": (
        "bee134dba4da1a92eccc134b46c6d5840a25cdbbc3c8ddcfd858d1cd086678c2",
        canonical("random", seed=3),
        "da5b6a175dcbbeca351bb6b80408ac3daf5e676a676f90faf18653983ce5c071",
        "ad4593e949ee758320dff5423ff1977591da4c8d7d71a1d12826f8f96291893a",
    ),
    "rb": (
        "d9a3ca90992d09d5e8c2473b0ef68e5508ddd411915fbe88d9dba03aa9e5608a",
        canonical("rb", seed=3),
        "4c63129f0c0df006eaeceb989a599cb0caec5a044b300b92187e1ece0fadbcbf",
        "0a9897bd0bb9ba323dd2bcb75fb589720dcb6a2d77c6392b69c1556f51334f80",
    ),
    "rcb": (
        "aae4ad5d9633229e2cfccdf9e5009f6202551bce34b4a88eef70e2757e5b5d39",
        canonical("rcb"),
        "fe29830c198ab9f69e542583d0a9e1ee44caf816d40b415b76018e81488010d3",
        "1da0539f7f3d4827066592da42dad012c59778f0a7dccbb49deb2ecdd6aba715",
    ),
    "rebalance-inline": (
        "b8d8a31b28ca48baa0ef69df6cae2b2b57c0f4f6c9de4ace54d88d5e14ebdf06",
        canonical("morton", 6, 1, weights="inline", **REBALANCE),
        "ec044f4628c4877aff4638b46233540cc49d7fa970f3ffd383cfabdd60e28c78",
        "ad6dd9e92bd7f868d544ad4bd5ee241ad75a7152d2290f08406e01e49c9061ef",
    ),
    "rebalance-scenario": (
        "8dc2318fd151885bbf0101e71b7383969ae06bf5e0aa376644769b466717378b",
        canonical(weights={"step": 3}, **REBALANCE),
        "9ea615db6184c4a8e121aa7d6ef38f386c708f1ae52adbf933ba07af27e16c5f",
        "96d22a0fd3eef40fc358bbfd53da5e702d57185e469a1218981d0db21b22be31",
    ),
    "sfc": (
        "624f946101ad1b6db9bbc2870e06dd5c34bf689de8d6a54079ed41113cd1bde3",
        canonical(),
        "c63962923d2e5020f74568384264ae8120c4e72e0a1a5d2abfc73a453a81b910",
        "e5baba4473b9bfea6604097f5455c9ef02f8419d874f72bf85f6361893f8c47b",
    ),
    "sfc-inline": (
        "90e8cd951130033c4e3ef1b508a4300491df383410076764040ddd733db7aa52",
        canonical(weights="inline"),
        "ae3080993792fb279b8442cb23322081f4d84ed6a5fbbd8c61c169281166a905",
        "95c200b3734065ea91bc714a0e8e723e9a623d56a75b729eade75759d2fc6c5d",
    ),
    "sfc-scenario": (
        "1d42504587ef4a85135d58fe0ad4f968ec52500792cf13ed81906517b7535f64",
        canonical(weights={"step": 2, "params": {"amplitude": 3.0}}),
        "c66122cfe310fe72f031f1b5f6e92e1c788364b096445fc09c119c2ba8501340",
        "b28ffaf26eacc35bb0076a788658610b26fb2c0250734070b2c157b543ffb0d5",
    ),
    "sfc-schedule": (
        "445103043e8ebf02799a01b0c543d8c2f2ce63dbeddf8eb93f7a0d908c7fc54e",
        canonical(nparts=6, schedule="H"),
        "84182cb03ad2aede3f9932672ac32f6934499dc531191d80646468978220eb72",
        "5328950990827844f5c601cbdcce168be7225283c751f9fbfbfde6b61351c76b",
    ),
    "strided": (
        "d673138d30737c37f91a74cd5fbd09ea219ee938ac4ac7ac0f883c2e14c9ebdc",
        canonical("strided"),
        "a3e5bab75cc3b17aad17b502202db3f321dc60ba83390b5e5aacccb9b85f4606",
        "52b37a6c2d6ab060af7fc29fd4f21171a0f27facff3700c16a8801bcea8c5af3",
    ),
    "tv": (
        "59cd0ca2f2cf41db94bc5363b7bf9a287a460ef2a6d41b174ecb38b4bb54272e",
        canonical("tv", seed=3),
        "b987bc9dbaa6938015ea44be1258e0fc96d1525eb393cebffa901e55b993ba62",
        "f0e311387141edf6f181c3eed366e0f6b544a8104df71d7964f2fd937fd30f89",
    ),
}


def request(wire: dict):
    """The probe's request, parsed as a client's body is."""
    return PartitionRequest.from_dict(wire)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def in_process_digest(response) -> str:
    body = response.to_dict()
    body["elapsed_s"] = 0.0
    return digest(json.dumps(body, sort_keys=True).encode("utf-8"))


def served_digest(response) -> str:
    body = response.to_payload()
    body.update(elapsed_s=0.0, request_id="-", trace_id="-")
    return digest(json_body(body))


def test_probe_set_covers_every_method():
    methods = {wire.get("method", "sfc") for wire in PROBES.values()}
    assert methods == set(registry.available())
    weighted = {
        wire.get("method", "sfc")
        for wire in PROBES.values()
        if "weights" in wire and "old_assignment" not in wire
    }
    assert weighted == {s.name for s in registry.specs() if s.weighted}
    assert set(PINS) == set(PROBES)


def test_cache_version_unchanged():
    assert cache_version() == "mesh1.graph1.partition3.evaluate1"


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_pins(name):
    req = request(PROBES[name])
    key, form, body, served = PINS[name]
    assert req.canonical() == form
    assert req.cache_key() == key
    response = req.compute()
    assert in_process_digest(response) == body
    assert served_digest(response) == served
