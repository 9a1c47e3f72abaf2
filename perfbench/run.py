"""Benchmark of the partition service and the partitioned SEAM core.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each one is there):

* ``cold``, ``warm``, ``rebalance`` — requests against a real
  partition server in its own process (:mod:`served`);
* ``seam`` — RK3 transport steps of the SFC-partitioned SEAM core, in
  this process (:mod:`seam_run`).

One operation is one request (round trip) or one SEAM step.  With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: the median operation latency and the median set-up
time (server start to healthy, or SEAM set-up), both at the reference
speed of :mod:`gauge`.  Each is measured in wall-clock time and read
against a fixed kernel timed on the same CPU just before (every quarter
second of operations, every cold burst, every set-up), because on a
shared virtual machine the CPU's own speed swings by up to 1.6x within
seconds: raw wall-clock medians of ten runs of the same code spread
over 29% to 57% of their median, and in sets of ten runs that spread
3% to 38% raw, the gauge-read medians spread 2% to 12%.
The plain wall-clock median latency, median set-up time and median
kernel time go to stderr.

With ``--trace 1`` the server collects spans and the SEAM layers are
timed, and the line carries the per-layer metrics instead, each per
operation, with the traced wall-clock median and 90th-percentile
latency and the median kernel time (``gauge_ms``, the host's speed
during the run); a layer a workload does not use reads 0.

Every process of a run shares one CPU (:func:`pin_to_one_cpu`).
Set-up happens before measuring, in the checkout: the C kernels are
compiled into ``.bench_build/`` (the program falls back to pure Python
if no compiler is found), and every process the benchmark starts
writes its caches and temporary files there.  The run fails without
printing a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

END_TO_END = {"latency_p50_ms": "ms", "setup_s": "s"}
PER_LAYER = {
    "traced_p50_ms": "ms",
    "traced_p90_ms": "ms",
    "client_encode_ms": "ms",
    "wire_ms": "ms",
    "server_ms": "ms",
    "compute_ms": "ms",
    "mesh_ms": "ms",
    "graph_ms": "ms",
    "partition_ms": "ms",
    "evaluate_ms": "ms",
    "keyed_cut_ms": "ms",
    "client_decode_ms": "ms",
    "response_kib": "KiB",
    "cache_hit_pct": "%",
    "coalesced_pct": "%",
    "mesh_builds_per_op": "count",
    "rhs_ms": "ms",
    "dss_ms": "ms",
    "dss_exchange_ms": "ms",
    "halo_messages": "count",
    "halo_values": "count",
    "gauge_ms": "ms",
}
WORKLOADS = ("cold", "warm", "rebalance", "seam")


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    A closed loop hands every request from the client to the server
    and back.  Left to the scheduler, the two processes drift between
    sharing a core and sitting on two, mid-run, and on a two-core
    virtual machine the warm median jumped between two levels 1.7x
    apart; on one core it held within a few percent.  BLAS and OpenMP
    get one thread each to match (set before numpy is imported).
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def prepare() -> None:
    """Point caches and temp files into the checkout; build the kernels."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    pin_to_one_cpu()
    for sub in ("cache", "tmp"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    from repro import _native

    if _native.LIB is None:
        print(
            "perfbench: C kernels unavailable; timing the pure-Python paths",
            file=sys.stderr,
        )


def percentile(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    if args.workload == "seam":
        import seam_run as workload
    else:
        import served as workload
    try:
        result = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace), BUILD
        )
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1
    if not result["latencies"]:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    ms = [1e3 * s for s in result["latencies"]]
    gauge = result["gauge"]
    slices = gauge.slices(result["latencies"])
    gauge_ms = 1e3 * statistics.median(gauge.refs)
    print(
        f"perfbench: wall-clock median {percentile(ms, 50):.4g} ms, "
        f"median set-up {statistics.median(s for _, s in result['setup']):.4g} s, "
        f"gauge median {gauge_ms:.4g} ms over {len(slices)} slices",
        file=sys.stderr,
    )
    if args.trace:
        values = {name: result["layers"].get(name, 0) for name in PER_LAYER}
        values["traced_p50_ms"] = percentile(ms, 50)
        values["traced_p90_ms"] = percentile(ms, 90)
        values["gauge_ms"] = gauge_ms
        units = PER_LAYER
    else:
        values = {
            "latency_p50_ms": 1e3 * gauge.at_reference_speed(slices),
            "setup_s": gauge.at_reference_speed(result["setup"]),
        }
        units = END_TO_END
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
