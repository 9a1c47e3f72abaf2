"""Batch partition execution engine.

The engine is the serving core and the only owner of the miss path:
submit any number of
:class:`~repro.service.requests.PartitionRequest` objects — partitions
and rebalances (requests with an old assignment), mixed freely — and
get back one response per request, in request order, with
bit-identical answers to serial in-process computation.  Per batch it

1. **deduplicates** requests by content hash (a sweep that asks the
   same point twice computes it once);
2. **consults the cache** (memory LRU, then disk) for every unique
   request;
3. **fans the misses out** over a ``ProcessPoolExecutor`` — sweep
   points are embarrassingly parallel, and every miss is CPU-bound
   (C kernels and NumPy driven by Python, whose share would serialize
   threads on the GIL), so processes are the right executor;
4. **stores** every computed response back into the cache and records
   telemetry in :class:`~repro.service.stats.ServiceStats`.

Each miss takes the same three steps whoever drives it:
:meth:`PartitionEngine.submit` runs it on the persistent pool,
:meth:`PartitionEngine.finish` merges the worker's telemetry and stores
the answer, and :meth:`PartitionEngine.record` counts every answer.
:meth:`PartitionEngine.run` drives them for a batch; the asyncio server
(:mod:`repro.server`) awaits ``submit``'s future and adds only
coalescing and admission control.

``jobs=1`` (the default) computes a batch's misses inline — no pool,
no fork — which keeps single-request CLI calls and small test batches
cheap and trivially debuggable.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from concurrent.futures import Future, ProcessPoolExecutor, wait
from time import perf_counter

from ..telemetry import (
    RequestContext,
    current_context,
    inc,
    log_event,
    replay_payload,
    request_context,
    set_gauge,
    span,
    telemetry_active,
    worker_session,
)
from .cache import PartitionCache
from .requests import PartitionRequest, _Response
from .stats import ServiceStats

__all__ = ["PartitionEngine", "compute_response"]


def compute_response(request: PartitionRequest) -> _Response:
    """Compute one request's response from scratch: a partition, or a
    rebalance's migration plan.

    Deterministic for a given request, so a pool worker (which runs
    :func:`_pool_compute`) and serial in-process computation agree
    bit-for-bit.
    """
    return request.compute()


def _pool_compute(item: tuple[PartitionRequest, bool, dict | None]):
    """Pool task of :meth:`PartitionEngine.submit`: compute one
    response, optionally with telemetry.

    When the parent had a collector active, a fresh worker-local
    session records every span, metric, and log record produced by the
    computation and ships them back alongside the response (the parent
    replays the payload into its own collectors and log sinks).

    ``ctx_dict`` is the request's trace context crossing the process
    boundary: the worker re-enters it, so worker-side spans and log
    records carry the same trace id as the server-side request.

    The response travels back without its request (the caller holds
    it and re-attaches it with ``with_request``): a rebalance's old
    assignment would otherwise double the pickled result.
    """
    request, collect, ctx_dict = item
    if not collect:
        return request.compute().with_request(None), None
    with request_context(RequestContext.from_dict(ctx_dict)):
        with worker_session() as session:
            response = request.compute()
            log_event(
                "worker.compute",
                key=request.cache_key()[:12],
                method=request.method,
                ne=request.ne,
                nparts=request.nparts,
                elapsed_ms=round(1e3 * response.elapsed_s, 3),
            )
    return response.with_request(None), session.to_payload()


class PartitionEngine:
    """Cached, batched, parallel partition server.

    Args:
        cache: Response cache; ``None`` builds a default memory-only
            :class:`PartitionCache`.
        jobs: Worker processes for cache misses.  At ``1``,
            :meth:`run` computes inline in this process; :meth:`submit`
            always uses a worker process.
    """

    def __init__(self, cache: PartitionCache | None = None, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.cache = cache if cache is not None else PartitionCache()
        self.jobs = jobs
        self.stats = ServiceStats(jobs=jobs)
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "PartitionEngine is closed; create a new engine to serve "
                "further requests"
            )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, created lazily and thread-safely.

        The lock matters for long-running (server) use: the engine may
        be driven from an event loop and from executor threads at once,
        and two racing first submissions must not each fork a pool.
        """
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs if self.jobs > 1 else 1
                )
            return self._pool

    def warm(self) -> int:
        """Fork every worker process now; returns the worker count.

        ``ProcessPoolExecutor`` spawns workers lazily at submission
        time.  A worker forked mid-serving inherits copies of every
        file descriptor the parent has opened since the pool was
        created — including the server's listening socket and client
        connections — and those copies keep the sockets alive after
        the parent closes them.  The server therefore warms the pool
        *before* binding, so no worker can ever hold a socket fd.
        """
        pool = self._ensure_pool()
        want = getattr(pool, "_max_workers", self.jobs)
        procs = getattr(pool, "_processes", None)
        # Each submit spawns a new worker while none is idle, so rounds
        # of short sleeps (keeping existing workers busy) fork the rest.
        for _ in range(50):
            if procs is None or len(procs) >= want:
                break
            wait([pool.submit(time.sleep, 0.02) for _ in range(want)])
        return len(procs) if procs is not None else want

    def __enter__(self) -> PartitionEngine:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def serve(self, request: PartitionRequest) -> _Response:
        """Serve a single request (batch of one)."""
        return self.run([request])[0]

    # -- the miss path: submit -> finish -> record ----------------------

    def submit(self, request: PartitionRequest) -> Future:
        """Compute one miss on the persistent worker pool.

        The pool is process-backed even at ``jobs=1``, so an asyncio
        front-end can await the future without ever blocking its event
        loop (or racing the process-global telemetry state from a
        worker thread).  The task carries the caller's telemetry flag
        and trace context, so worker-side spans and log records join
        the caller's trace.  The future's result is the pair
        :meth:`finish` takes.

        Raises:
            RuntimeError: The engine has been closed.
        """
        pool = self._ensure_pool()
        ctx = current_context()
        return pool.submit(
            _pool_compute,
            (request, telemetry_active(), ctx.to_dict() if ctx is not None else None),
        )

    def finish(
        self, request: PartitionRequest, outcome: tuple[_Response, dict | None]
    ) -> _Response:
        """Store one computed miss; returns its response.

        ``outcome`` is a ``(response, worker telemetry payload)`` pair:
        the payload is replayed into the active session, the request is
        re-attached to the response, and the answer goes into the cache.
        """
        response, payload = outcome
        if payload is not None:
            replay_payload(payload)
            inc("worker_payloads_merged")
        response = response.with_request(request)
        self.cache.put(request, response)
        return response

    def record(self, response: _Response) -> None:
        """Per-response bookkeeping shared by every serve path."""
        self.stats.record(response)
        response.record()

    # -- batches ----------------------------------------------------------

    def run(self, requests: Sequence[PartitionRequest]) -> list[_Response]:
        """Serve a batch; responses align with ``requests`` by index."""
        self._check_open()
        start = perf_counter()
        with span("engine_run", "service", requests=len(requests), jobs=self.jobs):
            responses = self._run_batch(requests)
        self.stats.record_batch_wall(perf_counter() - start)
        return responses

    def _run_batch(self, requests: Sequence[PartitionRequest]) -> list[_Response]:
        # Dedupe by content hash, preserving first-seen order.
        order: list[str] = []
        unique: dict[str, PartitionRequest] = {}
        with span("dedup", "service"):
            for req in requests:
                key = req.cache_key()
                order.append(key)
                unique.setdefault(key, req)

        resolved: dict[str, _Response] = {}
        misses: list[PartitionRequest] = []
        with span("cache", "service"):
            for key, req in unique.items():
                hit = self.cache.get(req)
                if hit is not None:
                    resolved[key] = hit
                else:
                    misses.append(req)

        for response in self._compute_all(misses):
            resolved[response.request.cache_key()] = response
            log_event(
                "engine.compute",
                key=response.request.cache_key()[:12],
                method=response.request.method,
                ne=response.request.ne,
                nparts=response.request.nparts,
                elapsed_ms=round(1e3 * response.elapsed_s, 3),
                jobs=self.jobs,
            )

        # Duplicate requests within the batch share the first
        # occurrence's answer; label repeats ``dedup`` so telemetry
        # doesn't double-count the compute time.
        responses: list[_Response] = []
        served: set[str] = set()
        for key in order:
            response = resolved[key]
            if key in served:
                response = response.with_source("dedup")
            served.add(key)
            responses.append(response)
        for response in responses:
            self.record(response)
        return responses

    def _compute_all(self, misses: list[PartitionRequest]) -> list[_Response]:
        if not misses:
            return []
        if self.jobs == 1 or len(misses) == 1:
            with span("compute_inline", "service"):
                computed = [req.compute() for req in misses]
            return [
                self.finish(req, (response, None))
                for req, response in zip(misses, computed)
            ]
        # The pool persists across run() calls: repeated sweeps pay the
        # worker fork/import cost once per engine, not once per batch.
        set_gauge("pool_queue_depth", len(misses))
        with span("pool", "service", misses=len(misses), jobs=self.jobs):
            futures = [self.submit(req) for req in misses]
            # Finish inside the pool span so replayed worker spans
            # re-parent under it in the trace.
            responses = [
                self.finish(req, future.result())
                for req, future in zip(misses, futures)
            ]
        set_gauge("pool_queue_depth", 0)
        return responses
