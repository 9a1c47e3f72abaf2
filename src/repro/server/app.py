"""The asyncio partition server.

:class:`PartitionServer` puts an HTTP/JSON front-end on the
:class:`~repro.service.engine.PartitionEngine`:

* ``POST /partition`` — one :class:`~repro.service.requests.PartitionRequest`
  as a JSON object; answers with the full response (assignment +
  Table-2 metrics + source).  A request that carries an
  ``old_assignment`` (and then needs new ``weights``) is a rebalance,
  answered with the migration-minimizing plan (moved gids per rank,
  weight moved, LB before/after).
* ``POST /batch`` — a JSON list of request objects (or
  ``{"requests": [...]}``); answers per item, errors included inline.
* ``POST /repartition`` — ``/partition`` for a body that must be a
  rebalance: one without ``old_assignment`` or ``weights`` is a 422.
  A plan is a pure function of its request, so it is served exactly
  like a partition: one parse, and one path through the engine's
  cache, coalescing, admission control, metrics and trace
  propagation.
* ``GET /healthz`` — liveness, the in-flight/pending picture, and the
  rolling multi-window SLO verdict (``ok`` / ``degraded``).
* ``GET /methods`` — the partitioner registry as JSON.
* ``GET /metrics`` — Prometheus text exposition of the active
  telemetry session's registry.
* ``GET /debug/vars`` — live internals: build info, cache hit rates,
  pool/coalescing depth, the hit/miss/entry counts of this process's
  memos (``memos``, by stage), SLO windows.
* ``GET /debug/requests`` — ring buffer of the last N requests
  (status, latency, source, trace id).
* ``GET /debug/profile?seconds=S`` — collapsed-stack wall-clock
  profile of the serving process (thread-sampling, flamegraph-ready).

Every request gets an identity: the server parses an incoming W3C
``traceparent`` (continuing the caller's trace) or starts a fresh
trace, carries the :class:`~repro.telemetry.context.RequestContext`
through the engine into pool workers, and answers with
``X-Request-Id`` + ``traceparent`` response headers (partition
responses also embed ``request_id``/``trace_id`` in the JSON body).
When log sinks are configured (``repro serve --access-log/--log-json``)
each request emits one structured ``access`` record.

Serving mechanics, in request order:

1. **Cache lookups run on the event loop** — a warm hit never touches
   the worker pool, so cached latency is independent of pool load.
2. **Request coalescing**: concurrent requests with the same content
   hash share one in-flight compute through ``_inflight`` (an async
   future map).  Joiners await an ``asyncio.shield`` of the shared
   task, so a joiner's disconnect can never cancel work someone else
   is waiting on.
3. **Admission control**: at most ``max_pending`` computes may be in
   flight; requests beyond that are rejected with ``503`` and a
   ``Retry-After`` hint instead of queueing unboundedly.
4. **Compute through the engine**: a miss awaits
   :meth:`~repro.service.engine.PartitionEngine.submit`'s future (the
   request's ``compute()`` in a worker process, so the event loop never
   blocks on partitioning), then
   :meth:`~repro.service.engine.PartitionEngine.finish` replays the
   worker's telemetry and stores the answer, and every answer is
   counted by :meth:`~repro.service.engine.PartitionEngine.record` — the
   same miss path a batch takes.  The server itself keeps only HTTP,
   coalescing and admission.
5. **Encode once per cached answer**: a computed answer is encoded
   whole.  A reused one — a memory or disk hit, or a coalesced joiner —
   is its cache entry's :class:`~repro.server.http.BodyTemplate` with
   this request's ``request_id``, ``source`` and ``trace_id`` spliced
   in (byte-identical to encoding it whole).  The template is built on
   the entry's first reuse and shared by every copy of its response,
   so a warm hit does no JSON encoding.  The memory trade: an entry
   that is asked for again holds its encoded body beside its arrays
   (``/debug/vars`` ``cache.encoded_bytes``) until it is evicted; a
   plan or partition that is never re-asked, such as each step of a
   rebalance trajectory, holds none.  ``/batch`` encodes whole.
6. **Timeouts and disconnects**: every connection read and every
   request dispatch is bounded by ``request_timeout``; a dead client's
   compute still runs to completion and lands in the cache, so no
   worker is ever leaked.
7. **Graceful shutdown**: :meth:`shutdown` stops accepting, lets
   handlers finish writing, drains orphaned computes, then closes
   idle connections and flushes gauges.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from collections import deque
from contextlib import ExitStack, suppress
from time import perf_counter

from .. import __version__
from ..memo import stage_cache_stats
from ..partition import registry
from ..service import (
    PartitionEngine,
    PartitionRequest,
    PartitionResponse,
    RepartitionResponse,
)
from ..service.cache import encoded_body
from ..telemetry import (
    RequestContext,
    SLOTracker,
    TelemetrySession,
    activate,
    current_context,
    current_session,
    inc,
    log_event,
    observe,
    parse_traceparent,
    request_context,
    set_gauge,
    span,
)
from ..telemetry.sampling import MAX_SECONDS, sample_stacks
from .http import (
    BodyTemplate,
    HTTPError,
    HTTPRequest,
    decode_json_body,
    error_body,
    json_body,
    read_request,
    render_response,
)

__all__ = ["PartitionServer"]

#: Upper bound on the number of request objects in one /batch body.
MAX_BATCH_ITEMS = 4096

#: Capacity of the /debug/requests ring buffer.
DEBUG_RING_SIZE = 128

#: The per-request fields of a ``/partition`` or ``/repartition`` body:
#: the holes of a cached answer's body template.
IDENTITY_FIELDS = ("request_id", "source", "trace_id")

#: Every route the server answers (404 bodies list these as a hint).
KNOWN_ROUTES = (
    "/batch",
    "/debug/profile",
    "/debug/requests",
    "/debug/vars",
    "/healthz",
    "/methods",
    "/metrics",
    "/partition",
    "/repartition",
)


class _Result:
    """One route's answer: status + body + response metadata."""

    __slots__ = (
        "status", "body", "content_type", "headers", "partitioner", "source",
    )

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
        partitioner: str = "none",
        source: str = "",
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}
        self.partitioner = partitioner
        self.source = source


class PartitionServer:
    """Async HTTP/JSON front-end over a :class:`PartitionEngine`.

    Args:
        engine: The serving engine; ``None`` builds a default
            (memory-cache, ``jobs=1``) engine owned — and closed — by
            the server.
        host: Bind address.
        port: Bind port; ``0`` picks an ephemeral port (read it back
            from :attr:`port` after :meth:`start`).
        max_pending: Admission limit on concurrently in-flight
            computes; ``None`` derives ``8 * engine.jobs`` from the
            pool size.
        request_timeout: Seconds allowed per connection read and per
            request dispatch.
        slo: Rolling SLO tracker feeding ``/healthz``; ``None`` builds
            one with the default objectives.
    """

    def __init__(
        self,
        engine: PartitionEngine | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int | None = None,
        request_timeout: float = 30.0,
        slo: SLOTracker | None = None,
    ) -> None:
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else PartitionEngine()
        if max_pending is None:
            max_pending = 8 * self.engine.jobs
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self._server: asyncio.Server | None = None
        self._closing = False
        self._inflight: dict[str, asyncio.Task] = {}
        self._connections: set[asyncio.Task] = set()
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._stack = ExitStack()
        self.session: TelemetrySession | None = None
        self.slo = slo if slo is not None else SLOTracker()
        self._recent: deque[dict] = deque(maxlen=DEBUG_RING_SIZE)
        self._started_at = time.time()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        if self.engine.closed:
            raise RuntimeError(
                "cannot serve with a closed PartitionEngine; build a new engine"
            )
        # A long-running server must not accumulate spans, so the
        # server-owned session is metrics-only.  An already-active
        # session (CLI telemetry flags, tests) is respected instead.
        if current_session() is None:
            self.session = TelemetrySession(
                trace=False, metrics=True, meta={"command": "serve"}
            )
            self._stack.enter_context(activate(session=self.session))
        else:
            self.session = current_session()
        # Fork every pool worker *before* binding: a worker forked
        # mid-serving would inherit the listening socket and client
        # fds, keeping them alive after the server closes them.
        await asyncio.get_running_loop().run_in_executor(
            None, self.engine.warm
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port resolved after start)."""
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until cancelled or :meth:`shutdown` is called."""
        assert self._server is not None, "call start() first"
        with suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful shutdown: drain in-flight work, then close.

        Idempotent.  Stops accepting connections, waits for handlers
        to finish writing their current responses, awaits orphaned
        computes (their results still land in the cache), closes the
        remaining idle connections, and flushes the queue-depth gauge.
        """
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._active_requests:
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._idle.wait(), self.request_timeout + 5.0
                )
        if self._inflight:
            await asyncio.gather(
                *list(self._inflight.values()), return_exceptions=True
            )
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        set_gauge("server_queue_depth", 0)
        if self._owns_engine:
            self.engine.close()
        self._stack.close()

    async def __aenter__(self) -> "PartitionServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    # -- connection handling --------------------------------------------

    def _begin_request(self) -> None:
        self._active_requests += 1
        self._idle.clear()

    def _end_request(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0:
            self._idle.set()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # client went away mid-write; nothing left to tell it
        except asyncio.CancelledError:
            pass  # shutdown closing an idle connection
        finally:
            self._connections.discard(task)
            writer.close()
            with suppress(Exception):
                await writer.wait_closed()

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), self.request_timeout
                )
            except asyncio.TimeoutError:
                return  # idle keep-alive connection: hang up
            except HTTPError as exc:
                writer.write(
                    render_response(
                        exc.status, error_body(exc),
                        headers=exc.headers, keep_alive=False,
                    )
                )
                await writer.drain()
                return
            if request is None:
                return  # clean EOF between requests
            keep = await self._serve_one(request, writer)
            if not keep:
                return

    async def _serve_one(
        self, request: HTTPRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Dispatch one parsed request and write its response.

        Returns whether the connection should be kept open.
        """
        ctx = parse_traceparent(request.headers.get("traceparent", ""))
        if ctx is None:
            ctx = RequestContext.new()
        self._begin_request()
        t0 = perf_counter()
        result: _Result | None = None
        with request_context(ctx):
            try:
                try:
                    with span(
                        "request", "server",
                        method=request.method, path=request.path,
                    ):
                        result = await asyncio.wait_for(
                            self._dispatch(request), self.request_timeout
                        )
                except HTTPError as exc:
                    result = _Result(
                        exc.status, error_body(exc), headers=exc.headers
                    )
                except asyncio.TimeoutError:
                    exc = HTTPError(
                        504, "timeout",
                        f"request exceeded the {self.request_timeout:g}s budget "
                        "(the compute continues and will be served from cache)",
                    )
                    result = _Result(exc.status, error_body(exc))
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    exc = HTTPError(
                        500, "internal_error", f"{type(exc).__name__}: {exc}"
                    )
                    result = _Result(exc.status, error_body(exc))
                keep = request.keep_alive and not self._closing
                headers = dict(result.headers)
                headers.setdefault("X-Request-Id", ctx.request_id)
                headers.setdefault("Traceparent", ctx.traceparent())
                writer.write(
                    render_response(
                        result.status,
                        result.body,
                        content_type=result.content_type,
                        headers=headers,
                        keep_alive=keep,
                    )
                )
                await writer.drain()
                return keep
            finally:
                self._end_request()
                elapsed = perf_counter() - t0
                status = result.status if result is not None else 500
                partitioner = (
                    result.partitioner if result is not None else "none"
                )
                source = result.source if result is not None else ""
                inc(
                    "server_requests_total",
                    status=str(status), partitioner=partitioner,
                )
                observe("server_request_seconds", elapsed)
                self.slo.record(status, elapsed)
                ms = round(1e3 * elapsed, 3)
                self._recent.append(
                    {
                        "ts": round(time.time(), 3),
                        "method": request.method,
                        "path": request.path,
                        "status": status,
                        "ms": ms,
                        "source": source,
                        "partitioner": partitioner,
                        "request_id": ctx.request_id,
                        "trace_id": ctx.trace_id,
                    }
                )
                log_event(
                    "access",
                    method=request.method,
                    path=request.path,
                    status=status,
                    ms=ms,
                    source=source,
                    partitioner=partitioner,
                )

    # -- routing --------------------------------------------------------

    async def _dispatch(self, request: HTTPRequest) -> _Result:
        route = (request.method, request.path)
        if route == ("POST", "/partition"):
            return await self._serve_request(request)
        if route == ("POST", "/batch"):
            return await self._serve_batch(request)
        if route == ("POST", "/repartition"):
            return await self._serve_request(request)
        if route == ("GET", "/healthz"):
            return self._serve_healthz()
        if route == ("GET", "/methods"):
            return self._serve_methods()
        if route == ("GET", "/metrics"):
            return self._serve_metrics()
        if route == ("GET", "/debug/vars"):
            return self._serve_debug_vars()
        if route == ("GET", "/debug/requests"):
            return self._serve_debug_requests(request)
        if route == ("GET", "/debug/profile"):
            return await self._serve_debug_profile(request)
        if request.path in KNOWN_ROUTES:
            raise HTTPError(
                405, "method_not_allowed",
                f"{request.method} is not supported on {request.path}",
            )
        raise HTTPError(
            404, "not_found",
            f"no route for {request.path}; known routes: "
            + ", ".join(KNOWN_ROUTES),
        )

    def _parse_request(self, data: object) -> PartitionRequest:
        """One request from a JSON object."""
        if not isinstance(data, dict):
            raise HTTPError(
                400, "bad_json", "request body must be a JSON object"
            )
        try:
            return PartitionRequest.from_dict(data)
        except ValueError as exc:
            # UnknownPartitionerError (did-you-mean), CapabilityError
            # (inadmissible ne / schedule contract), bad weights or old
            # assignments, and schema errors are all *validation*
            # failures: 422, never a 500.
            raise HTTPError(422, "invalid_request", str(exc))

    def _decode_json(self, body: bytes) -> object:
        try:
            return decode_json_body(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, "bad_json", f"request body is not valid JSON: {exc}")
        except RecursionError:
            raise HTTPError(400, "bad_json", "request body nests too deeply")

    def _stamp_identity(self, data: dict) -> dict:
        """Add the request/trace ids to an outgoing JSON body."""
        ctx = current_context()
        if ctx is not None:
            data["request_id"] = ctx.request_id
            data["trace_id"] = ctx.trace_id
        return data

    async def _serve_request(self, request: HTTPRequest) -> _Result:
        data = self._decode_json(request.body)
        if request.path == "/repartition" and isinstance(data, dict):
            missing = sorted(
                {"ne", "old_assignment", "weights"}
                - {name for name, value in data.items() if value is not None}
            )
            if missing:
                raise HTTPError(
                    422, "invalid_request",
                    "repartition needs 'ne', 'old_assignment' and 'weights' "
                    f"(missing: {missing})",
                )
        req = self._parse_request(data)
        response = await self._resolve(req)
        return _Result(
            200, self._encode(response), partitioner=req.method,
            source=response.source,
        )

    def _encode(self, response: PartitionResponse | RepartitionResponse) -> bytes:
        """``response``'s JSON body, stamped with this request's ids.

        A computed answer is encoded whole.  A reused answer fills its
        entry's body template on first use and then only splices its ids
        in.
        """
        if response.source == "computed":
            return json_body(self._stamp_identity(response.to_payload()))
        slot = encoded_body(response)
        if slot.template is None:
            slot.template = BodyTemplate.build(response.to_payload(), IDENTITY_FIELDS)
            if slot.template is None:
                return json_body(self._stamp_identity(response.to_payload()))
        ctx = current_context()
        return slot.template.render(
            {
                "request_id": ctx.request_id,
                "source": response.source,
                "trace_id": ctx.trace_id,
            }
        )

    async def _serve_batch(self, request: HTTPRequest) -> _Result:
        data = self._decode_json(request.body)
        if isinstance(data, dict):
            data = data.get("requests")
        if not isinstance(data, list):
            raise HTTPError(
                400, "bad_json",
                "batch body must be a JSON list of request objects "
                "(or {'requests': [...]})",
            )
        if len(data) > MAX_BATCH_ITEMS:
            raise HTTPError(
                413, "batch_too_large",
                f"batch of {len(data)} exceeds the {MAX_BATCH_ITEMS} limit",
            )

        async def one(item: object) -> dict:
            try:
                response = await self._resolve(self._parse_request(item))
                return response.to_payload()
            except HTTPError as exc:
                return json.loads(error_body(exc))

        responses = await asyncio.gather(*(one(item) for item in data))
        return _Result(
            200,
            json_body(
                self._stamp_identity(
                    {"schema": 1, "responses": list(responses)}
                )
            ),
            source="batch",
        )

    def _serve_healthz(self) -> _Result:
        health = self.slo.health()
        payload = {
            "status": "draining" if self._closing else health["status"],
            "inflight": len(self._inflight),
            "max_pending": self.max_pending,
            "jobs": self.engine.jobs,
            "connections": len(self._connections),
            "requests_total": self.engine.stats.total_requests,
            "slo": health,
        }
        return _Result(200, json_body(payload))

    def _serve_methods(self) -> _Result:
        methods = [
            {
                "name": s.name,
                "family": s.family,
                "weighted": s.weighted,
                "seeded": s.uses_seed,
                "schedule": s.supports_schedule,
                "continuous": s.continuous,
                "ne_constraint": s.ne_constraint,
                "description": s.description,
            }
            for s in registry.specs()
        ]
        from .. import scenarios as scenario_registry

        scenarios = [
            {
                "name": s.name,
                "description": s.description,
                "params": dict(s.params),
            }
            for s in scenario_registry.specs()
        ]
        return _Result(
            200,
            json_body(
                {"schema": 1, "methods": methods, "scenarios": scenarios}
            ),
        )

    def _serve_metrics(self) -> _Result:
        session = current_session()
        text = (
            session.metrics.to_prometheus()
            if session is not None and session.metrics is not None
            else ""
        )
        return _Result(
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # -- live introspection ---------------------------------------------

    def _serve_debug_vars(self) -> _Result:
        payload = {
            "schema": 1,
            "build": {
                "version": __version__,
                "python": sys.version.split()[0],
                "platform": sys.platform,
                "pid": os.getpid(),
            },
            "uptime_s": round(time.time() - self._started_at, 3),
            "server": {
                "host": self.host,
                "port": self.port,
                "closing": self._closing,
                "connections": len(self._connections),
                "active_requests": self._active_requests,
                "max_pending": self.max_pending,
                "request_timeout_s": self.request_timeout,
            },
            "coalescing": {
                "inflight": len(self._inflight),
                "keys": [key[:12] for key in self._inflight],
            },
            "engine": self.engine.stats.summary(),
            "cache": self.engine.cache.stats(),
            "memos": stage_cache_stats(),
            "slo": self.slo.health(),
            "recent_requests": {
                "size": len(self._recent),
                "capacity": DEBUG_RING_SIZE,
            },
        }
        return _Result(200, json_body(payload))

    def _serve_debug_requests(self, request: HTTPRequest) -> _Result:
        entries = list(self._recent)
        raw = request.query.get("n")
        if raw is not None:
            try:
                n = int(raw)
            except ValueError:
                raise HTTPError(400, "bad_query", f"n must be an integer, got {raw!r}")
            if n < 1:
                raise HTTPError(400, "bad_query", "n must be >= 1")
            entries = entries[-n:]
        payload = {
            "schema": 1,
            "capacity": DEBUG_RING_SIZE,
            "requests": entries,
        }
        return _Result(200, json_body(payload))

    async def _serve_debug_profile(self, request: HTTPRequest) -> _Result:
        raw = request.query.get("seconds", "2")
        try:
            seconds = float(raw)
        except ValueError:
            raise HTTPError(
                400, "bad_query", f"seconds must be a number, got {raw!r}"
            )
        # The profile must finish inside the request timeout or the
        # dispatch wrapper would answer 504 while the sampler runs on.
        limit = min(MAX_SECONDS, 0.8 * self.request_timeout)
        if not 0 < seconds <= limit:
            raise HTTPError(
                400, "bad_query",
                f"seconds must be in (0, {limit:g}], got {seconds:g}",
            )
        # Sampling blocks its thread between ticks, so it runs on the
        # default thread executor while the event loop keeps serving —
        # which is exactly what makes the profile representative.
        sampler = await asyncio.get_running_loop().run_in_executor(
            None, sample_stacks, seconds
        )
        text = sampler.collapsed()
        return _Result(
            200,
            (text + "\n" if text else "").encode("utf-8"),
            content_type="text/plain; charset=utf-8",
            headers={
                "X-Profile-Samples": str(sampler.samples),
                "X-Profile-Seconds": f"{seconds:g}",
            },
        )

    # -- the serving core: cache -> coalesce -> admit -> compute --------

    async def _resolve(
        self, request: PartitionRequest
    ) -> PartitionResponse | RepartitionResponse:
        """Answer one request on the event loop."""
        hit = self.engine.cache.get(request)
        if hit is not None:
            self.engine.record(hit)
            return hit
        key = request.cache_key()
        inflight = self._inflight.get(key)
        if inflight is not None:
            inc("server_coalesced_total")
            response = await asyncio.shield(inflight)
            response = response.with_source("coalesced")
            self.engine.record(response)
            return response
        if self._closing:
            raise HTTPError(
                503, "shutting_down", "server is draining; retry elsewhere",
                {"Retry-After": "1"},
            )
        if len(self._inflight) >= self.max_pending:
            inc("server_rejected_total")
            raise HTTPError(
                503, "overloaded",
                f"{len(self._inflight)} computes already pending "
                f"(max {self.max_pending}); retry later",
                {"Retry-After": "1"},
            )
        task = asyncio.get_running_loop().create_task(self._compute(request))
        self._inflight[key] = task
        task.add_done_callback(lambda t, key=key: self._forget_inflight(key, t))
        set_gauge("server_queue_depth", len(self._inflight))
        response = await asyncio.shield(task)
        self.engine.record(response)
        return response

    def _forget_inflight(self, key: str, task: asyncio.Task) -> None:
        self._inflight.pop(key, None)
        set_gauge("server_queue_depth", len(self._inflight))
        if not task.cancelled():
            task.exception()  # consume: every waiter may have disconnected

    async def _compute(
        self, request: PartitionRequest
    ) -> PartitionResponse | RepartitionResponse:
        """Run one cache miss through the engine's miss path.

        The compute task inherits the *first* requester's trace context
        (``create_task`` copies the contextvars, and ``submit`` reads
        them), so worker-side spans and log records join that request's
        trace; coalesced joiners share the result but keep their own
        request ids.
        """
        outcome = await asyncio.wrap_future(self.engine.submit(request))
        return self.engine.finish(request, outcome)
