"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's main workflows:

* ``curve``     — render a space-filling curve's visit order;
* ``partition`` — partition the cubed-sphere, print quality metrics,
  optionally write the assignment and the METIS-format graph;
* ``batch``     — serve a JSON/CSV file of partition requests through
  the cached, parallel service engine;
* ``serve``     — run the asyncio HTTP/JSON partition server
  (``POST /partition``, ``POST /batch``, ``GET /healthz``,
  ``GET /methods``, ``GET /metrics``, ``GET /debug/*``) with request
  coalescing, admission control, and optional structured logs
  (``--access-log`` for one JSON line per request, ``--log-json`` for
  every event, ``--log-sample`` for per-trace sampling);
* ``profile``   — per-stage wall-time profile of a partition request
  (coarsen/initial/refine/uncoarsen, cache, pool) as a table;
  ``--live URL`` instead profiles a *running* server via its
  ``/debug/profile`` endpoint (collapsed stacks, flamegraph-ready);
* ``top``       — live terminal view of a running server: polls
  ``/debug/vars`` and ``/metrics`` and renders load, cache hit rates,
  latency quantiles, and the SLO verdict;
* ``metrics``   — report LB/edgecut/TCV histograms and counters from a
  saved metrics export, or serve a request file and report live;
* ``methods``   — list the registered partitioners (names, families,
  capability flags) straight from the partitioner registry; the
  ``continuous`` column separates face-chaining curves (``sfc``) from
  discontinuous key cuts (``morton``, which therefore takes no
  refinement schedule);
* ``cache``     — inspect the partition cache: the pipeline's stage
  versions and, given ``--cache-dir``, entry freshness (stale entries
  are recomputed, never served);
* ``sweep``     — the paper's Figure 7-10 sweeps as a series table;
* ``table2``    — the paper's Table 2 for any (Ne, Nproc).

``partition`` and ``batch`` also accept ``--profile`` (print the same
stage table after the normal output).  ``partition``, ``batch`` and
``profile`` accept ``--telemetry-dir DIR``, which writes the run's
``trace.json`` (Chrome/Perfetto trace-event JSON, including
worker-process spans), ``metrics.json``, ``run.jsonl`` (structured
JSON-lines) and ``profile.json`` into DIR, and streams live log events
to ``DIR/log.jsonl`` during the run.  ``repro metrics
DIR/metrics.json`` prints the metric tables.

``partition``, ``batch`` and ``sweep`` all accept ``--cache-dir`` (a
persistent partition cache shared across invocations) and ``--jobs``
(worker processes for cache misses).

All output is plain text on stdout (machine-readable CSV via
``--csv`` for ``partition``, ``batch`` and ``sweep``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _package_version() -> str:
    """The installed package version, falling back to the source tree."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every engine-served subcommand."""
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent partition cache directory (created on demand)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for cache misses (default: 1, inline)",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """``--profile`` and ``--telemetry-dir``: one telemetry session."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage timing table after the normal output",
    )
    _add_telemetry_dir_flag(parser)


def _add_telemetry_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write trace.json (open in ui.perfetto.dev), metrics.json, "
        "run.jsonl and profile.json into DIR, and stream live log "
        "events to DIR/log.jsonl during the run",
    )


def _make_engine(args: argparse.Namespace):
    """Build a service engine from the common CLI flags."""
    from .service import PartitionCache, PartitionEngine

    cache = PartitionCache(cache_dir=args.cache_dir)
    return PartitionEngine(cache=cache, jobs=args.jobs)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing).

    ``--method`` choices come from the partitioner registry, so a
    method registered by a plugin (or removed) is reflected here and
    in ``repro methods`` without touching the CLI.
    """
    from .partition.registry import available

    methods = list(available())
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Space-filling-curve partitioning on the cubed-sphere "
            "(reproduction of Dennis, IPPS 2003)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="render a space-filling curve")
    group = p_curve.add_mutually_exclusive_group(required=True)
    group.add_argument("--size", type=int, help="domain side (2^n * 3^m)")
    group.add_argument(
        "--schedule", type=str, help="refinement schedule over {H,P}, coarsest first"
    )
    p_curve.add_argument(
        "--analyze", action="store_true", help="print locality statistics"
    )

    p_part = sub.add_parser("partition", help="partition the cubed-sphere")
    p_part.add_argument("--ne", type=int, required=True, help="elements per face edge")
    p_part.add_argument("--nparts", type=int, required=True, help="processor count")
    p_part.add_argument(
        "--method",
        default="sfc",
        choices=methods,
    )
    p_part.add_argument("--seed", type=int, default=0)
    wgroup = p_part.add_mutually_exclusive_group()
    wgroup.add_argument(
        "--weights",
        type=Path,
        metavar="FILE",
        help="per-element weights (.npy array, .csv column, or .json "
        "list); cuts balance weight instead of element count",
    )
    wgroup.add_argument(
        "--scenario",
        type=str,
        metavar="NAME",
        help="named weight scenario (storm, daynight, amr, ...); "
        "weights are generated deterministically for --ne",
    )
    p_part.add_argument(
        "--scenario-step",
        type=int,
        default=0,
        metavar="N",
        help="trajectory step for --scenario (default: 0)",
    )
    p_part.add_argument("--csv", action="store_true", help="CSV metric output")
    p_part.add_argument(
        "--write-assignment", type=Path, help="write gid->part as CSV"
    )
    p_part.add_argument(
        "--write-graph", type=Path, help="write the element graph (METIS format)"
    )
    _add_service_flags(p_part)
    _add_telemetry_flags(p_part)

    p_batch = sub.add_parser(
        "batch", help="serve a file of partition requests via the engine"
    )
    p_batch.add_argument(
        "requests",
        type=Path,
        help="JSON (list of request objects) or CSV (ne,nparts[,method,seed,"
        "schedule] header) request file",
    )
    p_batch.add_argument("--csv", action="store_true", help="CSV metric output")
    p_batch.add_argument(
        "--stats", action="store_true", help="print engine telemetry after the batch"
    )
    p_batch.add_argument(
        "--write-assignments",
        type=Path,
        metavar="DIR",
        help="write one gid,part CSV per request into DIR",
    )
    _add_service_flags(p_batch)
    _add_telemetry_flags(p_batch)

    p_serve = sub.add_parser(
        "serve", help="run the asyncio HTTP/JSON partition server"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8077,
        help="bind port; 0 picks an ephemeral port (default: 8077)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=None,
        help="admission limit on in-flight computes; over-limit requests "
        "get 503 + Retry-After (default: 8 x jobs)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-connection read/dispatch timeout in seconds (default: 30)",
    )
    p_serve.add_argument(
        "--metrics-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the server's metrics registry snapshot on shutdown",
    )
    p_serve.add_argument(
        "--access-log",
        type=Path,
        default=None,
        metavar="PATH",
        help="append one JSON line per request (method, route, status, "
        "latency, source, trace id)",
    )
    p_serve.add_argument(
        "--log-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="append every structured log event (access + engine + "
        "worker) as JSON lines",
    )
    p_serve.add_argument(
        "--log-sample",
        type=float,
        default=1.0,
        metavar="FRACTION",
        help="fraction of traces the log sinks keep, in (0, 1] "
        "(whole requests are kept or dropped together; default: 1.0)",
    )
    _add_service_flags(p_serve)

    p_prof = sub.add_parser(
        "profile", help="per-stage timing profile of one partition request"
    )
    p_prof.add_argument(
        "--live",
        default=None,
        metavar="URL",
        help="profile a running server instead: fetch URL/debug/profile "
        "and print collapsed stacks (--ne/--nparts not needed)",
    )
    p_prof.add_argument(
        "--seconds",
        type=float,
        default=2.0,
        help="sampling duration for --live (default: 2)",
    )
    p_prof.add_argument("--ne", type=int, default=None)
    p_prof.add_argument("--nparts", type=int, default=None)
    p_prof.add_argument(
        "--method",
        default="rb",
        choices=methods,
    )
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help="serve the request this many times (repeats exercise the cache)",
    )
    _add_service_flags(p_prof)
    _add_telemetry_dir_flag(p_prof)
    p_prof.set_defaults(profile=True)

    p_metrics = sub.add_parser(
        "metrics",
        help="report a run's metrics (from a --telemetry-dir's "
        "metrics.json or run.jsonl, or by serving a request file)",
    )
    p_metrics.add_argument(
        "source",
        type=Path,
        help="metrics snapshot JSON, JSON-lines run log, or a batch "
        "request file to serve and report",
    )
    p_metrics.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition instead of tables",
    )
    _add_service_flags(p_metrics)

    p_top = sub.add_parser(
        "top", help="live terminal view of a running partition server"
    )
    p_top.add_argument(
        "--url",
        default="http://127.0.0.1:8077",
        help="server base URL (default: http://127.0.0.1:8077)",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    p_top.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        help="stop after this many refreshes (default: run until Ctrl-C)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )

    p_methods = sub.add_parser(
        "methods", help="list the registered partitioners and their capabilities"
    )
    p_methods.add_argument("--csv", action="store_true", help="CSV output")

    p_cache = sub.add_parser(
        "cache",
        help="inspect the partition cache (versions, entry freshness)",
        description=(
            "Cached responses are stamped with the pipeline's composite "
            "stage version; entries written under a different version "
            "(including pre-versioning entries) are treated as stale and "
            "recomputed on the next request, never served."
        ),
    )
    p_cache.add_argument(
        "action", choices=["info"], help="info: print versions and cache stats"
    )
    p_cache.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent cache directory to scan (optional)",
    )

    p_sweep = sub.add_parser("sweep", help="speedup/Gflops sweep (Figs. 7-10)")
    p_sweep.add_argument("--ne", type=int, required=True)
    p_sweep.add_argument(
        "--methods", nargs="+", default=["sfc", "rb", "kway", "tv"]
    )
    p_sweep.add_argument("--nprocs", nargs="*", type=int, default=None)
    p_sweep.add_argument("--csv", action="store_true")
    _add_service_flags(p_sweep)

    p_t2 = sub.add_parser("table2", help="partition statistics (Table 2)")
    p_t2.add_argument("--ne", type=int, default=16)
    p_t2.add_argument("--nparts", type=int, default=768)
    p_t2.add_argument("--nlev", type=int, default=1, help="cost-model levels")

    p_trace = sub.add_parser(
        "trace", help="per-rank compute/comm timeline of one step"
    )
    p_trace.add_argument("--ne", type=int, required=True)
    p_trace.add_argument("--nparts", type=int, required=True)
    p_trace.add_argument(
        "--method",
        default="sfc",
        choices=methods,
    )
    p_trace.add_argument("--width", type=int, default=60)
    p_trace.add_argument("--max-ranks", type=int, default=24)

    p_report = sub.add_parser(
        "report", help="structural report of a partition (fragmentation etc.)"
    )
    p_report.add_argument("--ne", type=int, required=True)
    p_report.add_argument("--nparts", type=int, required=True)
    p_report.add_argument(
        "--method",
        default="sfc",
        choices=methods,
    )
    return parser


def _cmd_curve(args: argparse.Namespace) -> int:
    from .sfc import analyze_curve, generate_curve

    curve = generate_curve(size=args.size, schedule=args.schedule)
    print(f"schedule={curve.schedule or '(trivial)'} size={curve.size}")
    print(curve.render())
    if args.analyze:
        loc = analyze_curve(curve)
        print(
            f"\nlocality: bbox_aspect={loc.mean_bbox_aspect:.3f} "
            f"surface/volume={loc.mean_surface_to_volume:.3f} "
            f"mean_stretch={loc.mean_neighbor_stretch:.2f} "
            f"max_stretch={loc.max_neighbor_stretch}"
        )
    return 0


def _write_assignment_csv(path: Path, assignment) -> None:
    """Write a gid,part CSV, creating parents; clean error on failure.

    Raises:
        SystemExit: With a readable message when the path cannot be
            written (unwritable directory, permission denied, ...).
    """
    lines = ["gid,part"] + [f"{gid},{int(p)}" for gid, p in enumerate(assignment)]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise SystemExit(
            f"repro: error: cannot write assignment to '{path}': {exc.strerror or exc}"
        ) from exc
    print(f"wrote {path}", file=sys.stderr)


def _write_telemetry_dir(outdir: Path, session, profile: dict) -> None:
    """Write the session's exports into ``outdir``."""
    import json

    from .telemetry import write_chrome_trace, write_metrics_json, write_run_log

    def write_profile(path: Path, _session) -> None:
        path.write_text(json.dumps(profile, indent=2, sort_keys=True) + "\n")

    for name, writer in (
        ("trace.json", write_chrome_trace),
        ("metrics.json", write_metrics_json),
        ("run.jsonl", write_run_log),
        ("profile.json", write_profile),
    ):
        path = outdir / name
        try:
            writer(path, session)
        except OSError as exc:
            raise SystemExit(
                f"repro: error: cannot write telemetry to '{path}': "
                f"{exc.strerror or exc}"
            ) from exc
        print(f"wrote {path}", file=sys.stderr)


def _run_instrumented(
    args: argparse.Namespace, body, title: str | None = None, **meta
) -> int:
    """Run a handler body under one telemetry session.

    ``--profile`` prints the stage table built from the session's spans
    after the normal output; ``--telemetry-dir DIR`` writes the
    session's exports into DIR and streams live log events to
    ``DIR/log.jsonl`` while the body runs.
    """
    outdir = args.telemetry_dir
    if not (args.profile or outdir is not None):
        return body()
    from contextlib import ExitStack

    from .telemetry import (
        RequestContext,
        add_sink,
        remove_sink,
        render_stage_profile,
        request_context,
        stage_profile,
        telemetry_session,
    )

    meta = {"command": args.command, **meta}
    with ExitStack() as stack:
        session = stack.enter_context(telemetry_session(**meta))
        if outdir is not None:
            log_path = outdir / "log.jsonl"
            try:
                stack.callback(remove_sink, add_sink(log_path))
            except OSError as exc:
                raise SystemExit(
                    f"repro: error: cannot write telemetry to '{log_path}': "
                    f"{exc.strerror or exc}"
                ) from exc
        # A fresh request context names this run: every span and log
        # record it produces — in this process and in pool workers —
        # shares one trace id.
        stack.enter_context(request_context(RequestContext.new()))
        rc = body()
    profile = stage_profile(session, **meta)
    if args.profile:
        print()
        print(render_stage_profile(profile, title or f"Stage profile: {args.command}"))
    if outdir is not None:
        print(f"wrote {log_path}", file=sys.stderr)
        _write_telemetry_dir(outdir, session, profile)
    return rc


def _cmd_partition(args: argparse.Namespace) -> int:
    return _run_instrumented(
        args,
        lambda: _partition_body(args),
        ne=args.ne,
        nparts=args.nparts,
        method=args.method,
        seed=args.seed,
    )


def _load_weights_file(path: Path):
    """Load a per-element weight array by extension (.npy/.csv/.json)."""
    import json as _json

    import numpy as np

    suffix = path.suffix.lower()
    if suffix == ".npy":
        return np.load(path)
    text = path.read_text()
    if suffix == ".json":
        return np.asarray(_json.loads(text), dtype=np.float64)
    # CSV (or headerless text): one weight per line / comma-separated.
    import io

    return np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.float64).ravel()


def _weights_arg(args: argparse.Namespace):
    """The request weights payload from --weights/--scenario flags."""
    if getattr(args, "weights", None) is not None:
        try:
            return _load_weights_file(args.weights)
        except FileNotFoundError:
            raise SystemExit(
                f"repro: error: weights file '{args.weights}' not found"
            )
        except ValueError as exc:
            raise SystemExit(
                f"repro: error: cannot parse weights file "
                f"'{args.weights}': {exc}"
            )
    if getattr(args, "scenario", None):
        return {"scenario": args.scenario, "step": args.scenario_step}
    return None


def _partition_body(args: argparse.Namespace) -> int:
    from .service import PartitionRequest

    try:
        request = PartitionRequest(
            ne=args.ne, nparts=args.nparts, method=args.method,
            seed=args.seed, weights=_weights_arg(args),
        )
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")
    with _make_engine(args) as engine:
        response = engine.serve(request)
    m = response.metrics
    weighted = request.weights is not None
    if args.csv:
        print("method,nparts,lb_nelemd,lb_weight,lb_spcv,edgecut,tcv_points")
        print(
            f"{args.method},{args.nparts},{m['lb_nelemd']:.6f},"
            f"{m['lb_weight']:.6f},"
            f"{m['lb_spcv']:.6f},{m['edgecut']},{m['total_volume_points']}"
        )
    else:
        tag = ""
        if weighted:
            spec = request.weights
            tag = (
                f" scenario={spec.scenario}:{spec.step}"
                if spec.scenario is not None
                else " weighted"
            )
        print(f"K={request.k} method={args.method} nparts={args.nparts}{tag}")
        print(f"LB(nelemd)   = {m['lb_nelemd']:.4f}")
        if weighted:
            print(f"LB(weight)   = {m['lb_weight']:.4f}")
        print(f"LB(spcv)     = {m['lb_spcv']:.4f}")
        print(f"edgecut      = {m['edgecut']}")
        print(f"TCV (points) = {m['total_volume_points']}")
    if args.write_assignment:
        _write_assignment_csv(args.write_assignment, response.assignment)
    if args.write_graph:
        from .cubesphere import cubed_sphere_mesh
        from .graphs import mesh_graph, write_metis_graph

        write_metis_graph(mesh_graph(cubed_sphere_mesh(args.ne)), args.write_graph)
        print(f"wrote {args.write_graph}", file=sys.stderr)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    return _run_instrumented(
        args, lambda: _batch_body(args), requests=str(args.requests)
    )


def _batch_body(args: argparse.Namespace) -> int:
    from .experiments import format_table
    from .service import load_request_file

    try:
        requests = load_request_file(args.requests)
    except FileNotFoundError:
        raise SystemExit(f"repro: error: request file '{args.requests}' not found")
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")
    with _make_engine(args) as engine:
        responses = engine.run(requests)
    columns = [
        "ne", "nparts", "method", "seed", "source",
        "lb_nelemd", "lb_spcv", "edgecut", "tcv_points", "ms",
    ]
    rows = [
        [
            r.request.ne,
            r.request.nparts,
            r.request.method,
            r.request.seed,
            r.source,
            f"{r.metrics['lb_nelemd']:.6f}",
            f"{r.metrics['lb_spcv']:.6f}",
            r.metrics["edgecut"],
            r.metrics["total_volume_points"],
            f"{1e3 * r.elapsed_s:.1f}",
        ]
        for r in responses
    ]
    if args.csv:
        print(",".join(columns))
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        print(
            format_table(
                columns, rows, title=f"Batch of {len(responses)} requests"
            )
        )
    if args.write_assignments:
        for i, r in enumerate(responses):
            name = (
                f"req{i:04d}-ne{r.request.ne}-np{r.request.nparts}"
                f"-{r.request.method}.csv"
            )
            _write_assignment_csv(args.write_assignments / name, r.assignment)
    if args.stats:
        print()
        print(engine.stats.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    return asyncio.run(_serve_main(args))


async def _serve_main(args: argparse.Namespace) -> int:
    """Run the partition server until SIGINT/SIGTERM, then drain.

    ``--access-log``/``--log-json`` attach JSON-lines sinks for the
    lifetime of the server (detached and closed on exit, so log files
    are complete when the process returns).
    """
    from .telemetry import add_sink, remove_sink

    sinks = []
    try:
        if args.access_log is not None:
            sinks.append(
                add_sink(
                    args.access_log, sample=args.log_sample, events={"access"}
                )
            )
        if args.log_json is not None:
            sinks.append(add_sink(args.log_json, sample=args.log_sample))
    except (ValueError, OSError) as exc:
        for sink in sinks:
            remove_sink(sink)
        raise SystemExit(f"repro: error: cannot open log sink: {exc}")
    try:
        return await _serve_loop(args)
    finally:
        for sink in sinks:
            remove_sink(sink)


async def _serve_loop(args: argparse.Namespace) -> int:
    """The serve event loop proper (sinks already configured)."""
    import asyncio
    import signal
    from contextlib import suppress

    from .server import PartitionServer

    with _make_engine(args) as engine:
        server = PartitionServer(
            engine,
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            request_timeout=args.timeout,
        )
        await server.start()
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(jobs={engine.jobs}, max_pending={server.max_pending})",
            file=sys.stderr,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        forever = asyncio.ensure_future(server.serve_forever())
        try:
            await stop.wait()
        finally:
            print("shutting down: draining in-flight requests", file=sys.stderr)
            session = server.session
            await server.shutdown()
            forever.cancel()
            with suppress(asyncio.CancelledError):
                await forever
            if args.metrics_json is not None and session is not None:
                from .telemetry import write_metrics_json

                try:
                    write_metrics_json(args.metrics_json, session)
                except OSError as exc:
                    print(
                        f"repro: error: cannot write metrics to "
                        f"'{args.metrics_json}': {exc.strerror or exc}",
                        file=sys.stderr,
                    )
                else:
                    print(f"wrote {args.metrics_json}", file=sys.stderr)
            print(engine.stats.render(), file=sys.stderr)
    return 0


def _parse_server_url(url: str) -> tuple[str, int]:
    """``http://host:port`` -> ``(host, port)`` with readable errors."""
    from urllib.parse import urlsplit

    parts = urlsplit(url if "//" in url else f"http://{url}")
    if parts.scheme not in ("http", ""):
        raise SystemExit(
            f"repro: error: only http:// URLs are supported, got '{url}'"
        )
    host = parts.hostname
    if not host:
        raise SystemExit(f"repro: error: no host in server URL '{url}'")
    return host, parts.port or 8077


def _fetch_server(host: str, port: int, path: str):
    """One blocking GET against a running server; readable errors."""
    import asyncio

    from .server.client import fetch

    try:
        return asyncio.run(fetch(host, port, "GET", path))
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"repro: error: cannot reach server at {host}:{port}: {exc}"
        )


def _profile_live(args: argparse.Namespace) -> int:
    """``repro profile --live URL``: sample a running server's stacks."""
    host, port = _parse_server_url(args.live)
    response = _fetch_server(
        host, port, f"/debug/profile?seconds={args.seconds:g}"
    )
    if response.status != 200:
        raise SystemExit(
            f"repro: error: server answered {response.status}: "
            f"{response.body.decode('utf-8', 'replace')}"
        )
    samples = response.headers.get("x-profile-samples", "?")
    print(
        f"sampled {samples} stacks over {args.seconds:g}s from "
        f"http://{host}:{port} (collapsed-stack format; feed to "
        "flamegraph.pl or speedscope)",
        file=sys.stderr,
    )
    body = response.body.decode("utf-8", "replace")
    if body:
        print(body, end="" if body.endswith("\n") else "\n")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .service import PartitionRequest

    if args.live is not None:
        return _profile_live(args)
    if args.ne is None or args.nparts is None:
        raise SystemExit(
            "repro: error: --ne and --nparts are required "
            "(or pass --live URL to profile a running server)"
        )
    request = PartitionRequest(
        ne=args.ne, nparts=args.nparts, method=args.method, seed=args.seed
    )

    def body() -> int:
        with _make_engine(args) as engine:
            for _ in range(args.repeat):
                response = engine.serve(request)
        m = response.metrics
        print(
            f"K={request.k} method={args.method} nparts={args.nparts} "
            f"edgecut={m['edgecut']} tcv={m['total_volume_points']}"
        )
        return 0

    return _run_instrumented(
        args,
        body,
        title=(
            f"Stage profile: {args.method} ne={args.ne} "
            f"nparts={args.nparts} x{args.repeat}"
        ),
        ne=args.ne,
        nparts=args.nparts,
        method=args.method,
        seed=args.seed,
        repeat=args.repeat,
    )


def _histogram_quantile(text: str, name: str, q: float) -> float | None:
    """Crude upper-bound quantile from Prometheus histogram buckets.

    Returns the smallest bucket boundary covering fraction ``q`` of
    observations (summed across label sets), or ``None`` when the
    histogram is absent or empty.  Good enough for a live top view.
    """
    buckets: dict[float, float] = {}
    prefix = f"{name}_bucket{{"
    for line in text.splitlines():
        if not line.startswith(prefix):
            continue
        labels, _, value = line.partition("} ")
        le = None
        for part in labels[len(prefix) - 1:].strip("{}").split(","):
            key, _, raw = part.partition("=")
            if key.strip() == "le":
                raw = raw.strip().strip('"')
                le = float("inf") if raw == "+Inf" else float(raw)
        if le is None:
            continue
        try:
            buckets[le] = buckets.get(le, 0.0) + float(value)
        except ValueError:
            continue
    if not buckets:
        return None
    total = buckets.get(float("inf"), max(buckets.values()))
    if total <= 0:
        return None
    for le in sorted(buckets):
        if buckets[le] >= q * total:
            return le
    return None


def _render_top(host: str, port: int, vars_data: dict, metrics_text: str) -> str:
    """One ``repro top`` frame from /debug/vars + /metrics payloads."""
    build = vars_data.get("build", {})
    server = vars_data.get("server", {})
    engine = vars_data.get("engine", {})
    cache = vars_data.get("cache", {})
    slo = vars_data.get("slo", {})
    coalescing = vars_data.get("coalescing", {})
    status = slo.get("status", "?")
    if server.get("closing"):
        status = "draining"
    p50 = _histogram_quantile(metrics_text, "server_request_seconds", 0.50)
    p99 = _histogram_quantile(metrics_text, "server_request_seconds", 0.99)

    def _ms(value: float | None) -> str:
        return f"{1e3 * value:.0f}ms" if value is not None else "n/a"

    lines = [
        f"repro top — http://{host}:{port}   "
        f"v{build.get('version', '?')} pid {build.get('pid', '?')}   "
        f"up {vars_data.get('uptime_s', 0):.0f}s",
        f"status: {status}   "
        f"inflight {coalescing.get('inflight', 0)}/"
        f"{server.get('max_pending', '?')}   "
        f"connections {server.get('connections', 0)}   "
        f"active {server.get('active_requests', 0)}",
        f"requests: {engine.get('requests', 0)} total   "
        f"hit rate {100 * engine.get('hit_rate', 0.0):.1f}%   "
        f"p50<={_ms(p50)}   p99<={_ms(p99)}",
        f"cache: mem {cache.get('memory_hits', 0)} "
        f"disk {cache.get('disk_hits', 0)} "
        f"miss {cache.get('misses', 0)} "
        f"stale {cache.get('stale', 0)}   "
        f"entries {cache.get('memory_entries', 0)}",
    ]
    for window in slo.get("windows", []):
        lines.append(
            f"slo {window.get('seconds', '?')}s: "
            f"{window.get('count', 0)} req   "
            f"err {100 * window.get('error_rate', 0.0):.2f}%   "
            f"slow {100 * window.get('slow_rate', 0.0):.2f}%   "
            f"burn avail {window.get('availability_burn', 0.0):g} / "
            f"lat {window.get('latency_burn', 0.0):g}"
        )
    degraded_by = slo.get("degraded_by") or []
    if degraded_by:
        lines.append(f"DEGRADED by: {', '.join(degraded_by)}")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view over /debug/vars + /metrics of a server."""
    import time as _time

    host, port = _parse_server_url(args.url)
    iterations = 1 if args.once else args.iterations
    count = 0
    try:
        while True:
            vars_resp = _fetch_server(host, port, "/debug/vars")
            metrics_resp = _fetch_server(host, port, "/metrics")
            if vars_resp.status != 200:
                raise SystemExit(
                    f"repro: error: /debug/vars answered {vars_resp.status}"
                )
            frame = _render_top(
                host,
                port,
                vars_resp.json(),
                metrics_resp.body.decode("utf-8", "replace"),
            )
            if not args.once and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(frame)
            count += 1
            if iterations is not None and count >= iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Report a run's metrics from a saved export, or serve-and-report."""
    from .telemetry import load_metrics, telemetry_session

    path = args.source
    if not path.exists():
        raise SystemExit(f"repro: error: metrics source '{path}' not found")
    try:
        registry = load_metrics(path)
        run_label = str(path)
    except ValueError:
        # Not a metrics export: treat it as a batch request file and
        # serve it through the engine, reporting the live registry.
        from .service import load_request_file

        try:
            requests = load_request_file(path)
        except ValueError as exc:
            raise SystemExit(f"repro: error: {exc}")
        with telemetry_session(command="metrics", requests=str(path)) as session:
            with _make_engine(args) as engine:
                engine.run(requests)
        registry = session.metrics
        run_label = f"{path} (served {len(requests)} requests, run {session.run_id})"
    if args.prometheus:
        print(registry.to_prometheus(), end="")
    else:
        print(f"Metrics: {run_label}")
        print(registry.render())
    return 0


def _cmd_methods(args: argparse.Namespace) -> int:
    """List every registered partitioner and its capability flags."""
    from .partition.registry import specs

    columns = [
        "method", "family", "weighted", "seeded", "schedule", "continuous",
        "ne constraint", "description",
    ]
    rows = [
        [
            s.name,
            s.family,
            "yes" if s.weighted else "no",
            "yes" if s.uses_seed else "no",
            "yes" if s.supports_schedule else "no",
            "yes" if s.continuous else "no",
            s.ne_constraint or "any",
            s.description,
        ]
        for s in specs()
    ]
    if args.csv:
        print(",".join(c.replace(" ", "_") for c in columns))
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        from .report import format_table

        print(format_table(columns, rows, title="Registered partitioners"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache info``: pipeline versions + optional dir scan."""
    from .memo import stage_cache_stats
    from .partition.pipeline import STAGE_VERSIONS, cache_version
    from .service.cache import scan_cache_dir

    print(f"cache version: {cache_version()}")
    stages = " ".join(f"{s}={v}" for s, v in STAGE_VERSIONS.items())
    print(f"stage versions: {stages}")
    for stage, memo in stage_cache_stats().items():
        print(
            f"memo {stage}: {memo['entries']} entries, "
            f"{memo['hits']} hits, {memo['misses']} misses"
        )
    if args.cache_dir is not None:
        info = scan_cache_dir(args.cache_dir)
        print(f"cache dir: {args.cache_dir}")
        print(
            f"entries: {info['entries']} "
            f"(current {info['current']}, stale {info['stale']}, "
            f"unreadable {info['unreadable']}), {info['bytes']} bytes"
        )
        if info["stale"]:
            print(
                "note: stale entries were written under a different "
                "stage version and will be recomputed on next request"
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import format_series, speedup_sweep

    with _make_engine(args) as engine:
        results = speedup_sweep(
            args.ne,
            methods=tuple(args.methods),
            nprocs=args.nprocs or None,
            engine=engine,
        )
    nprocs = [r.nproc for r in results[args.methods[0]]]
    if args.csv:
        header = ["nproc"]
        for m in args.methods:
            header += [f"speedup_{m}", f"gflops_{m}"]
        print(",".join(header))
        for i, n in enumerate(nprocs):
            row = [str(n)]
            for m in args.methods:
                r = results[m][i]
                row += [f"{r.speedup:.3f}", f"{r.gflops:.3f}"]
            print(",".join(row))
    else:
        series: dict[str, list[str]] = {}
        for m in args.methods:
            series[f"S({m})"] = [f"{r.speedup:.1f}" for r in results[m]]
        print(format_series("Nproc", nprocs, series, title=f"Speedup, Ne={args.ne}"))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .experiments import render_table2, table2
    from .seam import SEAMCostModel

    cost = SEAMCostModel(nlev=args.nlev)
    rows = table2(ne=args.ne, nproc=args.nparts, cost=cost)
    print(render_table2(rows, k=6 * args.ne * args.ne, nproc=args.nparts))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .machine import PerformanceModel, trace_step
    from .partition.pipeline import partition_stage

    part = partition_stage(args.method, args.ne, args.nparts)
    trace = trace_step(PerformanceModel(), part)
    print(
        f"K={part.nvertices} method={args.method} nparts={args.nparts} "
        f"idle={100 * trace.idle_fraction():.0f}%"
    )
    print(trace.render(width=args.width, max_ranks=args.max_ranks))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .cubesphere import cubed_sphere_mesh
    from .experiments import format_table
    from .graphs import mesh_graph
    from .partition.analysis import analyze_structure
    from .partition.pipeline import partition_stage

    graph = mesh_graph(cubed_sphere_mesh(args.ne))
    part = partition_stage(args.method, args.ne, args.nparts)
    structure = analyze_structure(graph, part)
    print(
        f"K={graph.nvertices} method={args.method} nparts={args.nparts}: "
        f"{structure.fragmented_parts} fragmented parts, "
        f"max diameter {structure.max_diameter}, "
        f"mean boundary fraction {structure.mean_boundary_fraction:.2f}"
    )
    print(f"cut weight by interface kind: {structure.cut_weight_by_kind}")
    rows = [
        [s.part, s.size, s.components, s.diameter, s.boundary_elements]
        for s in structure.worst_parts(8)
    ]
    print(
        format_table(
            ["part", "size", "components", "diameter", "boundary elems"],
            rows,
            title="Worst parts (most fragmented / stretched)",
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(linewidth=120)
    handlers = {
        "curve": _cmd_curve,
        "partition": _cmd_partition,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "profile": _cmd_profile,
        "top": _cmd_top,
        "metrics": _cmd_metrics,
        "methods": _cmd_methods,
        "cache": _cmd_cache,
        "sweep": _cmd_sweep,
        "table2": _cmd_table2,
        "trace": _cmd_trace,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
