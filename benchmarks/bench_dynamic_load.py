#!/usr/bin/env python
"""Dynamic load-balancing benchmark: SFC repartitioning vs fresh METIS.

Drives the 100-step moving-storm weight trajectory (the ``storm``
scenario from :mod:`repro.scenarios`) at Ne=64 over 16 parts and
compares the two rebalancing strategies the repartition service can
choose between:

* **SFC re-cut** (:class:`~repro.partition.LoadTracker` on the
  streaming key path) — re-cut the fixed curve for each step's
  weights; elements only migrate between curve-adjacent ranks.
* **Fresh METIS** — run multilevel k-way from scratch on the same
  weights (sampled every ``--metis-every`` steps; consecutive fresh
  partitions share no history, so their diff is the migration a
  from-scratch rebalancer would force).  The element-connectivity
  CSR arrays are built once and only the vertex weights are swapped
  per sample.

Reports per-step load balance (``max/ideal``), the SFC cut's maximum
load over the optimal one (``max/optimum``) and migration fraction
for SFC, the sampled METIS migration fractions, and writes everything
to ``benchmarks/results/bench_dynamic_load.json`` (by default;
``bench_dynamic_load_ci.json`` under ``--ci``).  Exits non-zero if
an acceptance gate fails:

* SFC keeps ``max_load <= (1 + --lb-slack) * ideal`` at every step
  (default slack 5%, the paper-style LB bar under weighted cuts);
* every step's SFC cut is optimal: the greedy feasibility probe just
  below its maximum load (``tests/partition/reference_cuts.py``,
  independent of the library's bisection) cannot cover the curve;
* at every sampled step the SFC migration fraction is strictly below
  fresh METIS's.

Run ``python benchmarks/bench_dynamic_load.py`` for the full profile
or ``--ci`` for the reduced (Ne=16, 30-step) CI profile.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))  # tests.partition.reference_cuts

RESULTS_PATH = HERE / "results" / "bench_dynamic_load.json"


def run_trajectory(
    ne: int,
    nparts: int,
    steps: int,
    metis_every: int,
    scenario: str,
) -> dict:
    """Run both strategies over the trajectory; return the report."""
    import numpy as np

    from repro.cubesphere import cubed_sphere_mesh
    from repro.graphs import CSRGraph, mesh_graph
    from repro.metis import part_graph
    from repro.partition import LoadTracker, migration_cost
    from repro.partition.sfc import curve_key_fn
    from repro.scenarios import scenario_weights
    from tests.partition.reference_cuts import (
        is_optimal,
        optimal_max_load,
        segment_loads,
    )

    nsteps_period = max(steps, 100)  # keep the storm moving per step

    def weights_at(step: int) -> np.ndarray:
        return scenario_weights(scenario, ne, step, nsteps=nsteps_period)

    # -- SFC: the streaming key path, nothing rebuilt per step --------
    tracker = LoadTracker(ne, nparts=nparts)
    t0 = perf_counter()
    partitions = [tracker.update(weights_at(step)) for step in range(steps)]
    sfc_seconds = perf_counter() - t0

    # Loads along the curve, as the cut measures them: certify each cut.
    position = curve_key_fn(ne)(np.arange(6 * ne * ne)).astype(np.int64)

    def max_over_optimum(step: int, assignment: np.ndarray) -> tuple[float, bool]:
        along = np.empty(len(position))
        along[position] = weights_at(step)
        owner = np.empty(len(position), dtype=np.int64)
        owner[position] = assignment
        bounds = np.searchsorted(owner, np.arange(nparts + 1))
        optimal = is_optimal(along, bounds)
        top = segment_loads(along, bounds).max()
        best = top if optimal else optimal_max_load(along, nparts)
        return float(top / best), optimal

    sfc_steps = []
    for step, (entry, part) in enumerate(zip(tracker.history, partitions)):
        ratio, optimal = max_over_optimum(step, part.assignment)
        sfc_steps.append(
            {
                "step": step,
                "lb": entry["lb"],
                "max_over_ideal": entry["max_load"] / entry["mean_load"],
                "max_over_optimum": ratio,
                "optimal": optimal,
                "fraction_moved": entry["fraction_moved"],
            }
        )

    # -- fresh METIS at sampled steps: one CSR build, swapped weights -
    base = mesh_graph(cubed_sphere_mesh(ne))
    sample_steps = [s for s in range(metis_every, steps, metis_every)]

    def metis_partition(step: int):
        vw = np.maximum(np.round(weights_at(step)), 1).astype(np.int64)
        graph = CSRGraph(base.indptr, base.indices, base.eweights, vw)
        return part_graph(graph, nparts, "kway", seed=0)

    metis_samples = []
    t0 = perf_counter()
    for step in sample_steps:
        prev = metis_partition(step - 1)
        curr = metis_partition(step)
        w = weights_at(step)
        loads = np.bincount(curr.assignment, weights=w, minlength=nparts)
        metis_samples.append(
            {
                "step": step,
                "max_over_ideal": float(loads.max() / loads.mean()),
                "fraction_moved": migration_cost(prev, curr).fraction_moved,
                "sfc_fraction_moved": tracker.history[step]["fraction_moved"],
            }
        )
    metis_seconds = perf_counter() - t0

    fractions = [s["fraction_moved"] for s in sfc_steps[1:]]
    return {
        "config": {
            "ne": ne,
            "nparts": nparts,
            "steps": steps,
            "scenario": scenario,
            "metis_every": metis_every,
        },
        "sfc": {
            "seconds_total": sfc_seconds,
            "worst_max_over_ideal": max(s["max_over_ideal"] for s in sfc_steps),
            "worst_max_over_optimum": max(
                s["max_over_optimum"] for s in sfc_steps
            ),
            "mean_fraction_moved": float(np.mean(fractions)) if fractions else 0.0,
            "max_fraction_moved": float(np.max(fractions)) if fractions else 0.0,
            "steps": sfc_steps,
        },
        "metis": {
            "seconds_total": metis_seconds,
            "samples": metis_samples,
        },
    }


def check_gates(report: dict, lb_slack: float) -> list[str]:
    """The acceptance gates; returns failure messages (empty = pass)."""
    failures: list[str] = []
    worst = report["sfc"]["worst_max_over_ideal"]
    if worst > 1.0 + lb_slack:
        failures.append(
            f"SFC max/ideal {worst:.4f} exceeds {1.0 + lb_slack:.2f} "
            "(load balance outside the weighted-optimum slack)"
        )
    for step in report["sfc"]["steps"]:
        if not step["optimal"]:
            failures.append(
                f"step {step['step']}: SFC cut is not optimal "
                f"(max/optimum {step['max_over_optimum']:.6f})"
            )
    for sample in report["metis"]["samples"]:
        if sample["sfc_fraction_moved"] >= sample["fraction_moved"]:
            failures.append(
                f"step {sample['step']}: SFC moved "
                f"{sample['sfc_fraction_moved']:.3f}, not strictly below "
                f"fresh METIS's {sample['fraction_moved']:.3f}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ne", type=int, default=64)
    parser.add_argument("--nparts", type=int, default=16)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument(
        "--metis-every", type=int, default=10,
        help="sample fresh METIS every N steps (default 10)",
    )
    parser.add_argument("--scenario", default="storm")
    parser.add_argument(
        "--lb-slack", type=float, default=0.05,
        help="allowed max_load excess over ideal (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--ci", action="store_true",
        help="reduced profile (Ne=16, 30 steps) for the CI perf job",
    )
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.ci:
        args.ne, args.steps = 16, 30
    if args.out is None:
        stem = f"{RESULTS_PATH.stem}_ci" if args.ci else RESULTS_PATH.stem
        args.out = RESULTS_PATH.with_stem(stem)

    report = run_trajectory(
        args.ne, args.nparts, args.steps, args.metis_every, args.scenario
    )
    failures = check_gates(report, args.lb_slack)
    report["gates"] = {"lb_slack": args.lb_slack, "failures": failures}

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    cfg = report["config"]
    print(
        f"storm trajectory: ne={cfg['ne']} nparts={cfg['nparts']} "
        f"steps={cfg['steps']}"
    )
    print(
        f"  SFC   worst max/ideal {report['sfc']['worst_max_over_ideal']:.5f}  "
        f"max/optimum {report['sfc']['worst_max_over_optimum']:.4f}  "
        f"mean moved {report['sfc']['mean_fraction_moved']:.3f}  "
        f"max moved {report['sfc']['max_fraction_moved']:.3f}  "
        f"({report['sfc']['seconds_total']:.2f}s total)"
    )
    for sample in report["metis"]["samples"]:
        print(
            f"  step {sample['step']:3d}: METIS moved "
            f"{sample['fraction_moved']:.3f} vs SFC "
            f"{sample['sfc_fraction_moved']:.3f}"
        )
    print(f"wrote {args.out}")
    if failures:
        print("FAILED acceptance gates:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("acceptance gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
