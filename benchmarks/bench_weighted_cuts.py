#!/usr/bin/env python
"""Weighted SFC cut quality: the exact cut against the earlier heuristic.

For each (scenario, Ne, parts) row and each of steps 0-9 and 10, 20,
..., 90 of the scenario's weight trajectory, cuts the curve-ordered
weights with

* the library's exact cut (:func:`repro.partition.sfc.cut_positions_weighted`),
* the earlier heuristic (greedy prefix-sum targets plus the correction
  pass of Borrell et al., ``tests/partition/reference_cuts.py``),

and divides each maximum load by the optimal one (float bisection on
the independent greedy feasibility probe).  Reports the worst step
per row and the best-of-3 time per cut, and writes the table to
``benchmarks/results/weighted_cuts.txt``.  Exits non-zero if an exact
cut is not optimal.

Run ``python benchmarks/bench_weighted_cuts.py`` (about a minute).
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))  # tests.partition.reference_cuts

RESULTS_PATH = HERE / "results" / "weighted_cuts.txt"

#: (scenario, ne, nparts): K=1536 at 96-768 parts (16 down to 2
#: elements per part), K=384 at 4 per part, and K=24576 at 16 and 96.
ROWS = [
    *[(s, 16, p) for s in ("storm", "daynight", "amr") for p in (96, 384, 768)],
    ("storm", 8, 96),
    *[(s, 64, p) for s in ("storm", "daynight", "amr") for p in (16, 96)],
]
#: Steps 0-9, and every tenth step of the 100-step trajectories (the
#: ``amr`` cap is unrefined, so its weights uniform, until step 13).
STEPS = sorted({*range(10), *range(0, 100, 10)})


def best_time(fn, *args, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        fn(*args)
        best = min(best, perf_counter() - t0)
    return best


def main() -> int:
    import numpy as np

    from repro.experiments import format_table
    from repro.partition.sfc import curve_key_fn, cut_positions_weighted
    from repro.scenarios import scenario_weights
    from tests.partition.reference_cuts import (
        optimal_max_load,
        previous_cut,
        segment_loads,
    )

    rows, failures = [], []
    for scenario, ne, nparts in ROWS:
        position = curve_key_fn(ne)(np.arange(6 * ne * ne)).astype(np.int64)
        old_ratio = new_ratio = 0.0
        old_ms = new_ms = 0.0
        for step in STEPS:
            along = np.empty(len(position))
            along[position] = scenario_weights(scenario, ne, step)
            best = optimal_max_load(along, nparts)
            old = segment_loads(along, previous_cut(along, nparts)).max() / best
            new = segment_loads(along, cut_positions_weighted(along, nparts)).max() / best
            if new != 1.0:
                failures.append(f"{scenario} ne={ne} P={nparts} step {step}: {new}")
            old_ratio, new_ratio = max(old_ratio, old), max(new_ratio, new)
            old_ms = max(old_ms, 1e3 * best_time(previous_cut, along, nparts))
            new_ms = max(new_ms, 1e3 * best_time(cut_positions_weighted, along, nparts))
        k = 6 * ne * ne
        rows.append(
            [scenario, k, nparts, k // nparts, f"{old_ratio:.3f}",
             f"{new_ratio:.3f}", f"{old_ms:.2f}", f"{new_ms:.2f}"]
        )
        print(*rows[-1], flush=True)

    table = format_table(
        ["weights", "K", "parts", "K/part", "old max/opt", "exact max/opt",
         "old ms", "exact ms"],
        rows,
        title="Weighted SFC cuts, worst of steps 0-9 and 10-90 by 10 "
        "(max load / optimal max load; slowest best-of-3 ms per cut)",
    )
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(table + "\n")
    print(table)
    if failures:
        print("FAILED: exact cut not optimal at", *failures, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
