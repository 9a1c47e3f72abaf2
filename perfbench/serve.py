"""Run partition servers for the benchmark, each in its own process.

Default mode starts :class:`repro.server.PartitionServer` over a
:class:`repro.service.PartitionEngine` with its default single pool
worker (so every cache miss lands on the same process) on an ephemeral
port, prints ``READY <port> <pid>`` on stdout once it is
bound, and serves until SIGTERM or SIGINT, then drains and exits.

``--fork-server`` starts a parent that imports the program once, runs
one tiny request in-process so every lazily imported module is loaded,
drops the stage caches, and then forks one fresh server per ``fork
[TRACE_PATH]`` line read from stdin.  Each forked server answers like
the default mode; when it has exited the parent prints ``EXIT <status>``
and waits for the next line.  A forked server thus starts with the
program imported but every cache empty, which is what a cold request
needs, in a fraction of a full start's time.

The telemetry session is metrics-only, exactly as ``repro serve`` sets
it up, unless a trace path is given (``--trace-out`` or after ``fork``):
then it also collects spans (server and pool-worker stages) and, after
shutdown, writes them with the metrics snapshot to that path as JSON.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve.py [--trace-out spans.json]
    python3 perfbench/serve.py --fork-server
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import traceback
from pathlib import Path

from repro.server import PartitionServer
from repro.service import PartitionEngine
from repro.telemetry import TelemetrySession, activate


async def serve(session: TelemetrySession) -> None:
    with activate(session=session), PartitionEngine() as engine:
        server = PartitionServer(engine, port=0)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        forever = asyncio.ensure_future(server.serve_forever())
        print(f"READY {server.port} {os.getpid()}", flush=True)
        try:
            await stop.wait()
        finally:
            await server.shutdown()
            forever.cancel()
            await asyncio.gather(forever, return_exceptions=True)


def run_server(trace_out: Path | None) -> None:
    session = TelemetrySession(
        trace=trace_out is not None, metrics=True, meta={"command": "serve"}
    )
    asyncio.run(serve(session))
    if trace_out is not None:
        payload = session.to_payload()
        trace_out.write_text(
            json.dumps({"spans": payload["spans"], "metrics": payload["metrics"]})
        )


def fork_server() -> None:
    from repro.partition.pipeline import clear_stage_caches
    from repro.service import PartitionRequest
    from repro.service.engine import compute_response

    compute_response(PartitionRequest(ne=2, nparts=2))
    clear_stage_caches()
    for line in sys.stdin:
        words = line.split()
        if not words or words[0] != "fork":
            continue
        trace_out = Path(words[1]) if len(words) > 1 else None
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.setsid()
                run_server(trace_out)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        print(f"EXIT {os.waitstatus_to_exitcode(status)}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--fork-server", action="store_true")
    args = parser.parse_args()
    if args.fork_server:
        fork_server()
    else:
        run_server(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
