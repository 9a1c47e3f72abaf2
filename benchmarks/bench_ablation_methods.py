"""Ablation — all partitioning methods across all paper resolutions.

Extends the paper's SFC-vs-METIS comparison with the geometric (RCB),
block, and random baselines, and with the flat-network counterfactual
machine that isolates how much of the SFC advantage comes from SMP
rank locality versus load balance.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    PAPER_RESOLUTIONS,
    format_table,
    network_ablation,
    run_method,
)
from repro.partition import CapabilityError, registry


def _admits(method: str, ne: int, nproc: int) -> bool:
    """Whether the registry's capability check accepts the method here."""
    try:
        registry.get(method).validate(ne=ne, nparts=nproc)
    except CapabilityError:
        return False
    return True


def _method_matrix():
    """Every registered method at each size whose ``ne`` it admits
    (``morton`` needs ``ne = 2^n``, so it sits out K=486)."""
    out = []
    for res in PAPER_RESOLUTIONS[:2]:  # K=384, K=486 (fast paper cases)
        nproc = res.nprocs()[-1] // 4  # 4 elements per processor
        for method in registry.available():
            if _admits(method, res.ne, nproc):
                out.append((res, nproc, method, run_method(res.ne, nproc, method)))
    return out


def test_method_matrix_reproduction(benchmark, save_artifact):
    rows = []
    for res, nproc, method, r in benchmark.pedantic(
        _method_matrix, rounds=1, iterations=1
    ):
        rows.append(
            [
                res.k,
                nproc,
                method,
                f"{r.quality.lb_nelemd:.3f}",
                r.quality.edgecut,
                f"{r.speedup:.1f}",
            ]
        )
    text = format_table(
        ["K", "Nproc", "method", "LB(nelemd)", "edgecut", "speedup"],
        rows,
        title="All methods at 4 elements/processor",
    )
    save_artifact("ablation_methods", text)
    # SFC beats random and block everywhere.
    by = {(r[0], r[2]): float(r[5]) for r in rows}
    for res in PAPER_RESOLUTIONS[:2]:
        assert by[(res.k, "sfc")] > by[(res.k, "random")]
        assert by[(res.k, "sfc")] >= by[(res.k, "block")]


def test_network_ablation_reproduction(benchmark, save_artifact):
    out = benchmark.pedantic(
        network_ablation, kwargs={"ne": 8, "nproc": 384}, rounds=1, iterations=1
    )
    rows = []
    for method, res in out.items():
        rows.append(
            [
                method,
                f"{res['p690'].speedup:.1f}",
                f"{res['flat'].speedup:.1f}",
                f"{(res['p690'].speedup / res['flat'].speedup - 1) * 100:+.0f}%",
            ]
        )
    text = format_table(
        ["method", "S(P690)", "S(flat net)", "hierarchy benefit"],
        rows,
        title="Network-hierarchy ablation, K=384 on 384 procs",
    )
    save_artifact("ablation_network", text)
    # The hierarchical network helps the locality-ordered SFC ranks at
    # least as much as any METIS numbering.
    benefit = {
        m: out[m]["p690"].speedup / out[m]["flat"].speedup for m in out
    }
    assert benefit["sfc"] >= max(benefit[m] for m in ("rb", "kway", "tv")) - 0.02


@pytest.mark.parametrize("method", ["sfc", "rb", "kway", "tv", "rcb"])
def test_method_speed_k384(benchmark, method):
    benchmark.pedantic(run_method, args=(8, 96, method), rounds=3, iterations=1)
