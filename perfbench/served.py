"""Served workloads: cold, warm and rebalance requests against a real server.

Each workload runs ``serve.py`` (a :class:`repro.server.PartitionServer`
with the engine's one default pool worker) as a separate process and
drives it over real sockets with a small keep-alive HTTP/1.1 client.
The cold and warm traffic is the traffic the repository's own service
benchmarks send:

* **cold** — the cold pass of ``benchmarks/bench_service_cache.py``:
  its K=1536 (Ne=16) sweep (sfc, rb, kway and tv at 24 to 384 parts)
  in a seeded order, every pass against a freshly forked server
  (``serve.py --fork-server``) whose caches are all empty, so every
  request is computed and the pass's first one also builds the mesh
  and the graph.  Each request is sent by :data:`BURST_CLIENTS`
  clients at once, as in the burst phase of
  ``benchmarks/bench_service_load.py``: one answer is computed and the
  others coalesce onto it.  A run measures whole passes, so
  every run times the same set of requests.
* **warm** — the Zipf mix of ``benchmarks/bench_service_load.py`` (sfc,
  rb and block over ne 2-6 and 4-12 parts, exponent 1.1), from
  :data:`WARM_CLIENTS` concurrent clients in a closed loop (its
  ``--smoke`` warm concurrency), after every request of the mix was
  sent once, so every answer is a memory hit and the cost is parse,
  lookup, encode and I/O under concurrency.
* **rebalance** — one client follows a moving-storm weight trajectory
  at Ne=64 with 16 parts (the trajectory of
  ``benchmarks/bench_dynamic_load.py``), posting ``/repartition`` with
  the previous answer's assignment as the old one, so every plan is
  computed.

Set-up time is the time from spawning ``serve.py`` to its first healthy
``/healthz`` answer, taken :data:`SETUP_REPEATS` times per run.  Every
time is read against :func:`gauge.served_kernel`, run in this process
(on the server's CPU) before each set-up, before each cold burst, and
between quarter-second slices of warm and rebalance traffic; warm
clients all go idle for the reading.

Every answer is checked: partitions against the same request computed
in-process, plans against
:func:`repro.partition.repartition.plan_repartition`, and each answer's
``source`` against the cache state the workload claims (cold: exactly
one ``computed`` per burst, the others ``coalesced`` or, when they
arrive after a fast compute has finished, ``memory``; warm: ``memory``;
rebalance: ``computed``).  Load past the admission limit is left out:
a rejected request (HTTP 503) is a failed one.

The latency of one request runs from the first byte written to the
last byte read.  With tracing on, the server also collects its own
spans (request, worker compute, pipeline stages), which split each
request into layers; spans are matched to measured requests by the
trace id each request carries in its ``traceparent`` header.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import signal
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
from gauge import SLICE_S, Gauge, served_kernel
from repro.server.client import Connection

SERVE = Path(__file__).resolve().parent / "serve.py"
HOST = "127.0.0.1"

#: Seconds allowed for a server to come up or drain, and for one request.
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
#: Server starts timed per run (set-up samples): half before measuring
#: and half after, so the median spans the run and not one moment of it.
SETUP_REPEATS = 6
#: Seconds each run exercises the server, unmeasured, before measuring.
WARMUP_S = 2.0

#: Cold traffic: the sweep of ``benchmarks/bench_service_cache.py``.
COLD_NE = 16
COLD_METHODS = ("sfc", "rb", "kway", "tv")
COLD_NPROCS = (24, 48, 96, 192, 384)
#: Clients that send each cold request at once (the ``--cold-clients``
#: default of ``benchmarks/bench_service_load.py``).
BURST_CLIENTS = 32

#: Warm traffic: the Zipf mix of ``benchmarks/bench_service_load.py``.
MIX_NE = (2, 3, 4, 6)
MIX_NPARTS = (4, 6, 8, 12)
MIX_METHODS = ("sfc", "rb", "block")
ZIPF_S = 1.1
#: Concurrent warm clients (that harness's ``--smoke`` warm concurrency).
WARM_CLIENTS = 32

#: Rebalance problem: the trajectory of ``benchmarks/bench_dynamic_load.py``.
REBALANCE_NE = 64
REBALANCE_NPARTS = 16
REBALANCE_NSTEPS = 100
#: Largest acceptable load imbalance of a rebalanced partition.
REBALANCE_MAX_LB = 0.05


def _log(build: Path):
    return open(build / "server.log", "ab")


def _ready(line: bytes) -> int:
    """The port of a ``READY <port> <pid>`` line."""
    if not line.startswith(b"READY "):
        raise RuntimeError("server did not start; see .bench_build/server.log")
    return int(line.split()[1])


def _read_spans(path: Path | None) -> list[dict]:
    return [] if path is None else json.loads(path.read_text())["spans"]


def _killpg(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Server:
    """One spawned ``serve.py`` process and its port."""

    def __init__(self, build: Path, trace_out: Path | None = None) -> None:
        self.build = build
        self.trace_out = trace_out
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0

    async def start(self) -> float:
        """Spawn the server; returns seconds until ``/healthz`` answers."""
        t0 = perf_counter()
        cmd = [sys.executable, str(SERVE)]
        if self.trace_out is not None:
            self.trace_out.unlink(missing_ok=True)
            cmd += ["--trace-out", str(self.trace_out)]
        with _log(self.build) as log:
            self.proc = await asyncio.create_subprocess_exec(
                *cmd,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
        self.port = _ready(
            await asyncio.wait_for(self.proc.stdout.readline(), START_TIMEOUT)
        )
        conn = await Connection.open(HOST, self.port)
        try:
            health = await asyncio.wait_for(
                conn.request("GET", "/healthz"), REQUEST_TIMEOUT
            )
        finally:
            await conn.close()
        if health.status != 200:
            raise RuntimeError(f"/healthz answered {health.status}")
        return perf_counter() - t0

    async def stop(self) -> None:
        """Drain and stop the server, its workers with it."""
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(proc.wait(), START_TIMEOUT)
        except asyncio.TimeoutError:
            _killpg(proc.pid)
            await proc.wait()

    async def kill(self) -> None:
        """Last-resort cleanup: kill the whole process group, then reap."""
        if self.proc is not None and self.proc.returncode is None:
            _killpg(self.proc.pid)
            await self.proc.wait()


class ForkServer:
    """``serve.py --fork-server``: one fresh, cache-cold server at a time."""

    def __init__(self, build: Path) -> None:
        self.build = build
        self.proc: asyncio.subprocess.Process | None = None
        self.child = 0

    async def start(self) -> None:
        with _log(self.build) as log:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, str(SERVE), "--fork-server",
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )

    async def _line(self) -> bytes:
        return await asyncio.wait_for(self.proc.stdout.readline(), START_TIMEOUT)

    async def fork(self, trace_out: Path | None) -> int:
        """Fork a server; returns its port."""
        command = "fork"
        if trace_out is not None:
            trace_out.unlink(missing_ok=True)
            command += f" {trace_out}"
        self.proc.stdin.write(command.encode() + b"\n")
        await self.proc.stdin.drain()
        line = await self._line()
        port = _ready(line)
        self.child = int(line.split()[2])
        return port

    async def reap(self) -> None:
        """Stop the forked server and wait until it has exited."""
        child, self.child = self.child, 0
        os.kill(child, signal.SIGTERM)
        try:
            line = await self._line()
        except asyncio.TimeoutError:
            _killpg(child)
            line = await self._line()
        if not line.startswith(b"EXIT "):
            raise RuntimeError(f"unexpected fork-server output {line!r}")

    async def close(self) -> None:
        self.proc.stdin.close()
        await asyncio.wait_for(self.proc.wait(), START_TIMEOUT)

    async def kill(self) -> None:
        """Last-resort cleanup: kill the forked server and the parent."""
        if self.child:
            _killpg(self.child)
        if self.proc is not None and self.proc.returncode is None:
            _killpg(self.proc.pid)
            await self.proc.wait()


class Ledger:
    """Client-side record of the measured requests of one run."""

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.encode_s = 0.0
        self.decode_s = 0.0
        self.response_bytes = 0
        self.sources: Counter = Counter()
        self.trace_ids: set[str] = set()
        self._next_id = 0

    def trace_id(self) -> str:
        self._next_id += 1
        return f"{self.tag:08x}{self._next_id:024x}"

    async def post(
        self, conn: Connection, path: str, payload: dict, measured: bool = True
    ) -> dict | None:
        """POST one JSON request; returns the decoded answer or ``None``.

        Unmeasured calls (cache fill, trajectory start) are not
        recorded; a failed measured call counts as failed.
        """
        trace_id = self.trace_id()
        t0 = perf_counter()
        body = json.dumps(payload).encode("utf-8")
        t1 = perf_counter()
        response = await asyncio.wait_for(
            conn.request(
                "POST", path, body,
                headers={
                    "Content-Type": "application/json",
                    "traceparent": f"00-{trace_id}-{1:016x}-01",
                },
            ),
            REQUEST_TIMEOUT,
        )
        t2 = perf_counter()
        status, raw = response.status, response.body
        data = json.loads(raw)
        t3 = perf_counter()
        if not measured:
            if status != 200:
                raise RuntimeError(f"{path} answered {status}: {data}")
            return data
        self.attempted += 1
        if status != 200:
            self.failed += 1
            return None
        self.latencies.append(t2 - t1)
        self.encode_s += t1 - t0
        self.decode_s += t3 - t2
        self.response_bytes += len(raw)
        self.sources[data.get("source", "")] += 1
        self.trace_ids.add(trace_id)
        return data

    def reject(self) -> None:
        """Mark the last recorded answer as wrong."""
        self.wrong += 1


# -- checks -----------------------------------------------------------------


def expected_assignment(req: dict) -> list[int]:
    """The assignment of one request, computed in this process."""
    from repro.service import PartitionRequest
    from repro.service.engine import compute_response

    return compute_response(PartitionRequest.from_dict(req)).assignment.tolist()


def valid_assignment(data: dict, ne: int, nparts: int) -> np.ndarray | None:
    """The answer's assignment when it is well formed, else ``None``."""
    try:
        arr = np.asarray(data["assignment"], dtype=np.int64)
    except (KeyError, TypeError, ValueError):
        return None
    if arr.shape != (6 * ne * ne,) or arr.min() < 0 or arr.max() >= nparts:
        return None
    if len(np.unique(arr)) != nparts:
        return None
    return arr


def check_answer(
    ledger: Ledger, data: dict | None, expected: list[int], sources: tuple[str, ...]
) -> None:
    """Count a recorded answer as wrong unless it is ``expected`` and
    came from one of ``sources``."""
    if data is None:
        return
    if data.get("source") not in sources or data.get("assignment") != expected:
        ledger.reject()


# -- workloads --------------------------------------------------------------


async def time_starts(
    build: Path, gauge: Gauge, n: int
) -> list[tuple[float, float]]:
    """Start and stop a server ``n`` times; ``(gauge reading, seconds)``
    of each start."""
    setup = []
    for _ in range(n):
        server = Server(build)
        try:
            ref = gauge.reference()
            setup.append((ref, await server.start()))
            await server.stop()
        finally:
            await server.kill()
    return setup


async def burst(
    ledger: Ledger, port: int, req: dict, measured: bool
) -> list[dict | None]:
    """Send ``req`` from :data:`BURST_CLIENTS` connections at once."""
    conns = await asyncio.gather(
        *(Connection.open(HOST, port) for _ in range(BURST_CLIENTS))
    )
    try:
        return await asyncio.gather(
            *(ledger.post(conn, "/partition", req, measured) for conn in conns)
        )
    finally:
        await asyncio.gather(*(conn.close() for conn in conns))


async def run_cold(seed: int, seconds: float, trace: bool, build: Path) -> dict:
    rng = random.Random(seed)
    ledger = Ledger(seed)
    sweep = [
        {"ne": COLD_NE, "nparts": nparts, "method": method}
        for method in COLD_METHODS
        for nparts in COLD_NPROCS
    ]
    expected = [expected_assignment(req) for req in sweep]
    gauge = Gauge(served_kernel)
    setup = await time_starts(build, gauge, SETUP_REPEATS // 2)
    trace_out = build / "spans-cold.json" if trace else None
    layers: Counter = Counter()
    forker = ForkServer(build)

    async def one_pass(measured: bool) -> None:
        """The whole sweep, in a seeded order, against a fresh server."""
        order = list(range(len(sweep)))
        rng.shuffle(order)
        port = await forker.fork(trace_out)
        try:
            for i in order:
                if measured:
                    gauge.tick(len(ledger.latencies))
                answers = await burst(ledger, port, sweep[i], measured)
                if not measured:
                    continue
                for data in answers:
                    check_answer(
                        ledger, data, expected[i], ("computed", "coalesced", "memory")
                    )
                sources = [data and data.get("source") for data in answers]
                if sources.count("computed") != 1:
                    ledger.reject()
        finally:
            await forker.reap()
        # Span ids restart in every server, so each is read alone.
        layers.update(span_layers(_read_spans(trace_out), ledger.trace_ids))

    try:
        await forker.start()
        warm_until = perf_counter() + WARMUP_S
        while perf_counter() < warm_until:
            await one_pass(False)
        deadline = perf_counter() + seconds
        while not ledger.attempted or perf_counter() < deadline:
            await one_pass(True)
        await forker.close()
    finally:
        await forker.kill()
    setup += await time_starts(build, gauge, SETUP_REPEATS // 2)
    return summarize(ledger, setup, gauge, layers)


def zipf_mix(rng: random.Random) -> tuple[list[dict], list[float]]:
    """The warm request universe and its Zipf popularity weights."""
    mix = [
        {"ne": ne, "nparts": nparts, "method": method}
        for method in MIX_METHODS
        for ne in MIX_NE
        for nparts in MIX_NPARTS
    ]
    rng.shuffle(mix)
    return mix, [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(mix))]


async def run_warm(seed: int, seconds: float, trace: bool, build: Path) -> dict:
    rng = random.Random(seed)
    ledger = Ledger(seed)
    mix, popularity = zipf_mix(rng)
    expected = [expected_assignment(req) for req in mix]
    cum = list(itertools.accumulate(popularity))
    trace_out = build / "spans-warm.json" if trace else None
    gauge = Gauge(served_kernel)
    setup = await time_starts(build, gauge, SETUP_REPEATS // 2)
    server = Server(build, trace_out)

    async def client(conn: Connection, deadline: float, measured: bool):
        while perf_counter() < deadline:
            i = rng.choices(range(len(mix)), cum_weights=cum)[0]
            data = await ledger.post(conn, "/partition", mix[i], measured)
            if measured:
                check_answer(ledger, data, expected[i], ("memory",))

    async def clients(seconds: float, measured: bool) -> None:
        """Every client in a closed loop for ``seconds``, then all idle."""
        deadline = perf_counter() + seconds
        await asyncio.gather(*(client(conn, deadline, measured) for conn in conns))

    try:
        await server.start()
        conns = []
        try:
            for _ in range(WARM_CLIENTS):
                conns.append(await Connection.open(HOST, server.port))
            for req, want in zip(mix, expected):
                data = await ledger.post(conns[0], "/partition", req, measured=False)
                if data.get("assignment") != want:
                    raise RuntimeError(f"wrong answer to {req} while filling")
            await clients(WARMUP_S, measured=False)
            deadline = perf_counter() + seconds
            while perf_counter() < deadline:
                gauge.tick(len(ledger.latencies))
                await clients(SLICE_S, measured=True)
        finally:
            await asyncio.gather(*(conn.close() for conn in conns))
        await server.stop()
    finally:
        await server.kill()
    setup += await time_starts(build, gauge, SETUP_REPEATS // 2)
    return summarize(
        ledger, setup, gauge, span_layers(_read_spans(trace_out), ledger.trace_ids)
    )


def storm_weights(params: dict, step: int) -> dict:
    """Wire weights of the trajectory at ``step``.

    The storm's latitude drifts a little every lap, so no request of
    the trajectory ever repeats an earlier one.
    """
    lap, phase = divmod(step, REBALANCE_NSTEPS)
    return {
        "scenario": "storm",
        "step": phase,
        "params": {**params, "lat0": params["lat0"] + 0.02 * lap},
    }


async def run_rebalance(
    seed: int, seconds: float, trace: bool, build: Path
) -> dict:
    from repro.partition.repartition import plan_repartition
    from repro.scenarios import scenario_weights

    rng = random.Random(seed)
    ledger = Ledger(seed)
    params = {"nsteps": REBALANCE_NSTEPS, "lat0": rng.uniform(-0.3, 0.3)}
    ne, nparts = REBALANCE_NE, REBALANCE_NPARTS
    step = rng.randrange(REBALANCE_NSTEPS)
    trace_out = build / "spans-rebalance.json" if trace else None
    gauge = Gauge(served_kernel)
    setup = await time_starts(build, gauge, SETUP_REPEATS // 2)
    server = Server(build, trace_out)
    try:
        await server.start()
        conn = await Connection.open(HOST, server.port)
        try:
            first = {"ne": ne, "nparts": nparts, "method": "sfc",
                     "weights": storm_weights(params, step)}
            data = await ledger.post(conn, "/partition", first, measured=False)
            if data.get("assignment") != expected_assignment(first):
                raise RuntimeError("the trajectory's first partition is wrong")
            old = np.asarray(data["assignment"], dtype=np.int64)
            measure_from = perf_counter() + WARMUP_S
            deadline = measure_from + seconds
            while (now := perf_counter()) < deadline:
                if now >= measure_from and gauge.due():
                    gauge.tick(len(ledger.latencies))
                step += 1
                weights = storm_weights(params, step)
                data = await ledger.post(
                    conn,
                    "/repartition",
                    {
                        "ne": ne,
                        "nparts": nparts,
                        "method": "sfc",
                        "old_assignment": old.tolist(),
                        "weights": weights,
                    },
                    now >= measure_from,
                )
                if data is None:
                    continue
                plan = data.get("plan", {})
                got = valid_assignment(plan, ne, nparts)
                want = plan_repartition(
                    old,
                    scenario_weights(
                        "storm", ne, weights["step"], **weights["params"]
                    ),
                    ne=ne,
                    nparts=nparts,
                )
                if (
                    got is None
                    or data.get("source") != "computed"
                    or not np.array_equal(got, want.new_assignment)
                    or plan.get("elements_moved") != want.elements_moved
                    or not plan.get("lb_after", 1.0) <= REBALANCE_MAX_LB
                ):
                    ledger.reject()
                    continue
                old = got
        finally:
            await conn.close()
        await server.stop()
    finally:
        await server.kill()
    setup += await time_starts(build, gauge, SETUP_REPEATS // 2)
    return summarize(
        ledger, setup, gauge, span_layers(_read_spans(trace_out), ledger.trace_ids)
    )


# -- per-layer breakdown ----------------------------------------------------


def span_layers(spans: list[dict], trace_ids: set[str]) -> Counter:
    """Seconds per span name, summed over the spans of measured requests.

    ``stage:graph`` is self time: a mesh built inside the graph stage
    counts under ``stage:mesh`` only.
    """
    mine = [s for s in spans if s.get("args", {}).get("trace_id") in trace_ids]
    child_mesh: dict[int, float] = defaultdict(float)
    for s in mine:
        if s["name"] == "stage:mesh":
            child_mesh[s["parent"]] += s["dur_us"]
    total: Counter = Counter()
    for s in mine:
        dur = s["dur_us"]
        if s["name"] == "stage:graph":
            dur -= child_mesh.get(s["id"], 0.0)
        total[s["name"]] += dur / 1e6
    total["mesh_builds"] = sum(s["name"] == "stage:mesh" for s in mine)
    return total


def summarize(
    ledger: Ledger, setup: list[tuple[float, float]], gauge: Gauge, layers: Counter
) -> dict:
    """The workload result :mod:`run` turns into metrics.

    Per-layer times are per measured request: ``wire`` is what the
    client waited beyond the server's ``request`` span, ``server`` the
    ``request`` span beyond the worker's compute.  A compute counts
    once, under the request that started it, so the wait of a request
    coalesced onto it is server time.
    """
    ops = max(len(ledger.latencies), 1)
    request_s = layers["request"]
    compute_s = layers["compute"] + layers["repartition"]
    seconds = {
        "client_encode_ms": ledger.encode_s,
        "client_decode_ms": ledger.decode_s,
        "wire_ms": sum(ledger.latencies) - request_s,
        "server_ms": request_s - compute_s,
        "compute_ms": compute_s,
        "mesh_ms": layers["stage:mesh"],
        "graph_ms": layers["stage:graph"],
        "partition_ms": layers["stage:partition"],
        "evaluate_ms": layers["stage:evaluate"],
        "keyed_cut_ms": layers["keyed_cut"],
    }
    per_layer = {name: 1e3 * value / ops for name, value in seconds.items()}
    hits = ledger.sources["memory"] + ledger.sources["disk"]
    per_layer.update(
        response_kib=ledger.response_bytes / 1024 / ops,
        cache_hit_pct=100.0 * hits / ops,
        coalesced_pct=100.0 * ledger.sources["coalesced"] / ops,
        mesh_builds_per_op=layers["mesh_builds"] / ops,
    )
    return {
        "latencies": ledger.latencies,
        "gauge": gauge,
        "setup": setup,
        "attempted": ledger.attempted,
        "failed": ledger.failed + ledger.wrong,
        "correct": ledger.wrong == 0,
        "layers": per_layer,
    }


WORKLOADS = {"cold": run_cold, "warm": run_warm, "rebalance": run_rebalance}


def run(name: str, seed: int, seconds: float, trace: bool, build: Path) -> dict:
    """Run one served workload to completion (event loop included)."""
    return asyncio.run(WORKLOADS[name](seed, seconds, trace, build))
