"""Ablation — rank-to-node mapping: can METIS recover the SFC edge?

The network ablation showed that, at O(1) elements per processor, much
of the SFC advantage is *rank locality* on the P690's 8-way SMP nodes.
A fair question: could METIS partitions win it back with a
topology-aware rank placement?  This bench compares identity, random
and greedy communication-packing mappings for every method and
records the answer.
"""

from __future__ import annotations

from repro.experiments import format_table
from repro.machine import (
    PerformanceModel,
    apply_mapping,
    greedy_comm_mapping,
    random_mapping,
)
from repro.partition import partition_stage

NE, NPROC = 8, 192


def _run_matrix():
    model = PerformanceModel()
    out = {}
    for method in ("sfc", "rb", "kway"):
        part = partition_stage(method, NE, NPROC)
        times = {
            "identity": model.step_timing(part).step_s,
            "random": model.step_timing(
                apply_mapping(part, random_mapping(NPROC, seed=1))
            ).step_s,
            "greedy": model.step_timing(
                apply_mapping(part, greedy_comm_mapping(model, part))
            ).step_s,
        }
        out[method] = times
    return out


def test_rank_mapping_reproduction(benchmark, save_artifact):
    results = benchmark.pedantic(_run_matrix, rounds=1, iterations=1)
    rows = []
    for method, times in results.items():
        rows.append(
            [
                method,
                f"{times['identity'] * 1e6:.0f}",
                f"{times['random'] * 1e6:.0f}",
                f"{times['greedy'] * 1e6:.0f}",
            ]
        )
    save_artifact(
        "ablation_rank_mapping",
        format_table(
            ["method", "identity (us)", "random (us)", "greedy (us)"],
            rows,
            title=f"Time/step by rank mapping, K={6 * NE * NE} on {NPROC} procs",
        ),
    )
    # Random placement never helps; greedy never hurts much.
    for times in results.values():
        assert times["random"] >= times["identity"] * 0.98
        assert times["greedy"] <= times["random"] * 1.02
    # Even with greedy mapping, METIS should not overtake SFC here:
    # its load imbalance at 2 elements/processor remains.
    best_metis = min(results["rb"]["greedy"], results["kway"]["greedy"])
    assert results["sfc"]["identity"] < best_metis
