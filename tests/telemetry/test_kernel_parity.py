"""Quality metrics are identical with C kernels and the Python fallback.

The ``kernels`` label on ``part_graph_total`` records which path ran;
everything the paper reports — LB(nelemd), LB(spcv), edgecut, TCV —
must not depend on it.  Each side runs in a subprocess because the
kernel library is chosen at import time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_SCRIPT = """
import json, sys
from repro.service import PartitionEngine, PartitionRequest
from repro.telemetry import telemetry_session

requests = [
    PartitionRequest(ne=4, nparts=8, method="rb"),
    PartitionRequest(ne=4, nparts=8, method="kway"),
    PartitionRequest(ne=4, nparts=12, method="tv"),
    # The Ne=4 requests coarsen no level; these two refine during
    # uncoarsening (two levels), so the K-way refiners are compared.
    PartitionRequest(ne=16, nparts=96, method="kway"),
    PartitionRequest(ne=16, nparts=96, method="tv"),
    # The benchmark's size: the level-synchronous rb path (C kernels)
    # against the depth-first loop (pure Python), with multilevel
    # groups at 24 parts and 8-vertex groups at 384.
    PartitionRequest(ne=16, nparts=24, method="rb"),
    PartitionRequest(ne=16, nparts=384, method="rb"),
]
with telemetry_session() as session:
    with PartitionEngine() as engine:
        engine.run(requests)
print(json.dumps(session.metrics.snapshot()))
"""

#: Metrics that legitimately differ between the two runs: wall time,
#: and the counter labelled with the kernel path itself.
_EXCLUDE = {"request_compute_seconds", "part_graph_total"}


def _subprocess_stdout(script: str, no_ckernels: bool) -> str:
    env = dict(os.environ)
    env.pop("REPRO_NO_CKERNELS", None)
    if no_ckernels:
        env["REPRO_NO_CKERNELS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def _run(no_ckernels: bool) -> dict:
    snapshot = json.loads(_subprocess_stdout(_SCRIPT, no_ckernels))
    return {
        (e["name"], tuple(sorted(e.get("labels", {}).items()))): {
            k: v for k, v in e.items() if k not in ("name", "labels")
        }
        for e in snapshot
        if e["name"] not in _EXCLUDE
    }


def test_metrics_identical_with_and_without_ckernels():
    with_kernels = _run(no_ckernels=False)
    fallback = _run(no_ckernels=True)
    assert with_kernels == fallback
    # sanity: the comparison actually covers the quality histograms
    names = {name for name, _ in with_kernels}
    assert {"request_lb_nelemd", "request_lb_spcv",
            "request_edgecut", "request_tcv_points"} <= names


def test_kernel_selection_label_reflects_fallback():
    env = dict(os.environ)
    env["REPRO_NO_CKERNELS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    snapshot = json.loads(proc.stdout)
    labels = [
        e["labels"]
        for e in snapshot
        if e["name"] == "part_graph_total"
    ]
    assert labels and all(lab["kernels"] == "python" for lab in labels)


_BODIES = """
import dataclasses, json
from repro.partition.sfc import sfc_partition
from repro.server.http import _NATIVE, json_body
from repro.service import (
    PartitionRequest, RepartitionRequest,
    compute_response,
)

responses = [
    compute_response(PartitionRequest(ne=16, nparts=24, method="rb")),
    compute_response(RepartitionRequest(
        ne=16, nparts=16, old_assignment=sfc_partition(16, 16).assignment,
        weights={"scenario": "storm", "step": 4},
    )),
]
bodies = [
    json_body(dataclasses.replace(r, elapsed_s=0.0).to_payload()).decode()
    for r in responses
]
print(json.dumps({"native": _NATIVE is not None, "bodies": bodies}))
"""


def test_response_bodies_identical_with_and_without_ckernels():
    """The /partition and /repartition bodies do not depend on the kernels."""
    with_kernels = json.loads(_subprocess_stdout(_BODIES, no_ckernels=False))
    fallback = json.loads(_subprocess_stdout(_BODIES, no_ckernels=True))
    assert not fallback["native"]
    assert with_kernels["bodies"] == fallback["bodies"]
    partition, repartition = (json.loads(b) for b in fallback["bodies"])
    assert len(partition["assignment"]) == 1536
    assert len(repartition["plan"]["assignment"]) == 1536
    assert repartition["plan"]["moves"]


_SERVED = r"""
import asyncio, json, re
from repro.partition.sfc import sfc_partition
from repro.server import Connection, PartitionServer
from repro.server.http import _NATIVE
from repro.service import PartitionEngine

old = sfc_partition(16, 16).assignment.tolist()
bodies = {
    "/repartition": {"ne": 16, "nparts": 16, "old_assignment": old,
                     "weights": {"scenario": "storm", "step": 4}},
    "/batch": {"requests": [
        {"ne": 4, "nparts": 8, "method": "rb"},
        {"ne": 4, "nparts": 6, "weights": list(range(1, 97))},
        {"ne": 4, "nparts": 6, "weights": {"inline": [2] * 96}},
        {"ne": [1], "nparts": 2},
    ]},
}
# Timings and per-request ids differ from run to run.
volatile = re.compile(r'"(elapsed_s|request_id|trace_id)": [^,}]+')


async def main():
    out = {}
    # The repeat is a memory hit: its body is spliced into a template.
    posts = [*bodies.items(), ("/repartition", bodies["/repartition"])]
    with PartitionEngine() as engine:
        async with PartitionServer(engine) as server:
            async with await Connection.open(*server.address) as conn:
                for i, (path, payload) in enumerate(posts):
                    resp = await conn.request(
                        "POST", path, json.dumps(payload).encode()
                    )
                    out[f"{i} {path}"] = [
                        resp.status, volatile.sub(r'"\1": 0', resp.body.decode())
                    ]
    return out


print(json.dumps({"native": _NATIVE is not None, "bodies": asyncio.run(main())}))
"""


def test_served_bodies_identical_with_and_without_ckernels():
    """/repartition and /batch answers, from request bytes to response
    bytes, do not depend on the kernels; nor does a memory hit's body,
    spliced into its entry's template."""
    with_kernels = json.loads(_subprocess_stdout(_SERVED, no_ckernels=False))
    fallback = json.loads(_subprocess_stdout(_SERVED, no_ckernels=True))
    assert not fallback["native"]
    assert with_kernels["bodies"] == fallback["bodies"]
    status, body = fallback["bodies"]["0 /repartition"]
    assert status == 200 and json.loads(body)["plan"]["moves"]
    status, again = fallback["bodies"]["2 /repartition"]
    assert status == 200 and again == body.replace(
        '"source": "computed"', '"source": "memory"'
    )
    status, body = fallback["bodies"]["1 /batch"]
    items = json.loads(body)["responses"]
    assert status == 200 and [len(r.get("assignment", ())) for r in items] == [
        96, 96, 96, 0,
    ]
    assert items[-1]["error"]["status"] == 422
