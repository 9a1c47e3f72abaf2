#!/usr/bin/env python
"""Keying vs. materialization: SFC partitioning at Ne >= 1024.

The paper partitions at most K = 1944 elements, where materializing the
global curve (mesh + coords + order + position) is free.  The keyed
path (:mod:`repro.sfc.keys`) is built for resolutions three orders of
magnitude past that; this bench quantifies the two claims behind it:

1. **Memory** — ``sfc_partition`` (chunked uint64 keying) partitions a
   full cubed-sphere at each Ne with peak RSS that stays O(chunk) while
   the materialized path grows O(K): the golden oracles
   ``partition_curve(reference_cubed_sphere_curve(ne), ...)`` from
   ``tests/partition/reference_sfc.py`` and
   ``tests/cubesphere/reference_curve.py``, which build the curve
   forward, independently of the keys.  Each measurement runs in its own subprocess so
   ``ru_maxrss`` is attributable.
2. **Throughput** — cells keyed per second for each curve family
   (Hilbert, Peano, Hilbert-Peano, Morton) at multi-million K.

Writes ``benchmarks/results/bench_sfc_keys.json``
(``bench_sfc_keys_ci.json`` under ``--ci``, so a CI run leaves the
committed full profile alone) and exits non-zero when an acceptance
check fails:

* keyed and materialized assignments are bit-identical (checked at the
  smallest Ne of the sweep);
* at the largest common Ne of a full run (>= 1024), keyed peak RSS is
  >= 10x below the materialized path's;
* Hilbert keying sustains >= 1e7 cells/s (full runs only).

Run ``PYTHONPATH=src python benchmarks/bench_sfc_keys.py`` for the
full sweep (Ne up to 1024, K = 6.3M; the materialized side needs
several GB and a few minutes) or ``--ci`` for the small-Ne profile.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

RESULTS_PATH = HERE / "results" / "bench_sfc_keys.json"

FULL_NES = (96, 192, 384, 768, 1024)
CI_NES = (24, 48, 96)
#: The materialized path at Ne=1024 peaks around 9 GB; keep a guard so
#: the bench degrades loudly, not with an OOM kill.
NPARTS = 3072

#: Throughput cases: (label, ne, schedule or None for Morton).
FULL_THROUGHPUT = (
    ("hilbert", 1024, "H" * 10),
    ("peano", 729, "P" * 6),
    ("hilbert_peano", 972, None),  # default schedule: PPPPPHH
    ("morton", 1024, "morton"),
)
CI_THROUGHPUT = (
    ("hilbert", 64, "H" * 6),
    ("peano", 81, "P" * 4),
    ("hilbert_peano", 96, None),
    ("morton", 64, "morton"),
)

MIN_CELLS_PER_S = 1e7
MIN_RSS_RATIO = 10.0


def _peak_rss_bytes() -> int:
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1024 if sys.platform != "darwin" else 1
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def child_partition(path: str, ne: int, nparts: int) -> dict:
    """One partition in this process; peak RSS is attributable to it."""
    from repro.partition.sfc import sfc_partition
    from tests.cubesphere.reference_curve import reference_cubed_sphere_curve
    from tests.partition.reference_sfc import partition_curve

    t0 = perf_counter()
    if path == "keyed":
        part = sfc_partition(ne, nparts)
    else:
        part = partition_curve(reference_cubed_sphere_curve(ne), nparts)
    elapsed = perf_counter() - t0
    k = 6 * ne * ne
    return {
        "path": path,
        "ne": ne,
        "k": k,
        "nparts": nparts,
        "seconds": elapsed,
        "cells_per_s": k / elapsed,
        "peak_rss_bytes": _peak_rss_bytes(),
        "checksum": int(part.assignment.astype("int64").sum()),
    }


def child_throughput(label: str, ne: int, schedule: str | None) -> dict:
    """Best-of-3 keying rate over every element of the Ne mesh."""
    import numpy as np

    from repro.cubesphere.curve import element_keys
    from repro.sfc.keys import morton_keys

    k = 6 * ne * ne
    gids = np.arange(k, dtype=np.int64)
    if label == "morton":
        n2 = ne * ne
        face, rem = np.divmod(gids, n2)
        iy, ix = np.divmod(rem, ne)

        def run() -> None:
            morton_keys(ix, iy, ne, check=False)
    else:

        def run() -> None:
            element_keys(ne, schedule, gids=gids)

    run()  # warm (tables, chain, allocator)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        run()
        best = min(best, perf_counter() - t0)
    return {
        "curve": label,
        "ne": ne,
        "k": k,
        "seconds": best,
        "cells_per_s": k / best,
    }


def _spawn(argv: list[str]) -> dict:
    # ``src`` for the package, the repository root for ``tests`` (the
    # materialized oracles).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE.parent / "src"), str(HERE.parent)])
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_sfc_keys.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ci",
        action="store_true",
        help="small-Ne profile: skip the multi-GB materialized runs",
    )
    parser.add_argument(
        "--child",
        nargs="+",
        metavar="ARG",
        help="internal: run one measurement and print JSON",
    )
    args = parser.parse_args(argv)

    if args.child:
        kind = args.child[0]
        if kind in ("keyed", "materialized"):
            out = child_partition(
                kind, int(args.child[1]), int(args.child[2])
            )
        else:
            sched = args.child[3] if len(args.child) > 3 else None
            out = child_throughput(args.child[1], int(args.child[2]), sched)
        print(json.dumps(out))
        return 0

    nes = CI_NES if args.ci else FULL_NES
    cases = CI_THROUGHPUT if args.ci else FULL_THROUGHPUT
    partitions: list[dict] = []
    for ne in nes:
        nparts = min(NPARTS, 6 * ne * ne)
        for path in ("keyed", "materialized"):
            rec = _spawn(["--child", path, str(ne), str(nparts)])
            partitions.append(rec)
            print(
                f"{path:12s} ne={ne:5d} K={rec['k']:9,d}  "
                f"{rec['seconds']:8.2f} s  "
                f"{rec['cells_per_s'] / 1e6:7.2f} Mcells/s  "
                f"peak RSS {rec['peak_rss_bytes'] / 2**20:9.1f} MiB"
            )

    throughput: list[dict] = []
    for label, ne, schedule in cases:
        child = ["--child", "throughput", label, str(ne)]
        if label == "morton":
            rec = _spawn(["--child", "throughput", "morton", str(ne)])
        else:
            rec = _spawn(child + ([schedule] if schedule else []))
        throughput.append(rec)
        print(
            f"key {label:14s} ne={ne:5d} K={rec['k']:9,d}  "
            f"{rec['cells_per_s'] / 1e6:7.2f} Mcells/s"
        )

    failures: list[str] = []

    # Bit-identity of the two paths at the smallest Ne of the sweep
    # (full equality is golden-tested; the checksum guards the bench
    # wiring itself).
    by = {(r["path"], r["ne"]): r for r in partitions}
    ne0 = nes[0]
    if by[("keyed", ne0)]["checksum"] != by[("materialized", ne0)]["checksum"]:
        failures.append(f"keyed != materialized assignment at ne={ne0}")

    # Memory: only meaningful at scale, where O(K) dwarfs interpreter
    # baseline RSS.
    ratio = None
    big = max(ne for ne in nes if ("materialized", ne) in by)
    if big >= 1024:
        ratio = (
            by[("materialized", big)]["peak_rss_bytes"]
            / by[("keyed", big)]["peak_rss_bytes"]
        )
        print(f"peak-RSS ratio (materialized / keyed) at ne={big}: {ratio:.1f}x")
        if ratio < MIN_RSS_RATIO:
            failures.append(
                f"RSS ratio {ratio:.1f}x < {MIN_RSS_RATIO}x at ne={big}"
            )

    hilbert = next(r for r in throughput if r["curve"] == "hilbert")
    if not args.ci and hilbert["cells_per_s"] < MIN_CELLS_PER_S:
        failures.append(
            f"hilbert keying {hilbert['cells_per_s']:.2e} cells/s "
            f"< {MIN_CELLS_PER_S:.0e}"
        )

    out = RESULTS_PATH.with_stem(f"{RESULTS_PATH.stem}_ci") if args.ci else RESULTS_PATH
    out.parent.mkdir(exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "schema": 1,
                "profile": "ci" if args.ci else "full",
                "partitions": partitions,
                "throughput": throughput,
                "rss_ratio_at_largest_ne": ratio,
                "failures": failures,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {out}")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("sfc-keys bench ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
