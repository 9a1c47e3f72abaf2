"""Table 2: partition statistics for K=1536 on 768 processors.

Columns follow the paper exactly: computational load balance
``LB(nelemd)``, communication load balance ``LB(spcv)``, total
communication volume in Mbytes, edgecut, and the (simulated) execution
time per timestep in microseconds, for SFC vs METIS KWAY vs TV vs RB.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.spec import MachineSpec, P690_CLUSTER
from ..partition import registry
from ..seam.cost import DEFAULT_COST_MODEL, SEAMCostModel
from .figures import run_method
from ..report import format_table

__all__ = ["Table2Row", "table2", "render_table2", "TABLE2_METHODS"]

#: Paper column order.
TABLE2_METHODS = ("sfc", "kway", "tv", "rb")


@dataclass(frozen=True)
class Table2Row:
    """One method's row of Table 2."""

    method: str
    lb_nelemd: float
    lb_spcv: float
    tcv_mbytes: float
    edgecut: int
    time_us: float


def table2(
    ne: int = 16,
    nproc: int = 768,
    machine: MachineSpec = P690_CLUSTER,
    cost: SEAMCostModel = DEFAULT_COST_MODEL,
    seed: int = 0,
    methods: tuple[str, ...] = TABLE2_METHODS,
) -> list[Table2Row]:
    """Compute Table 2 (defaults: the paper's K=1536 on 768 procs).

    Methods resolve through the partitioner registry, so unknown names
    fail up front (with a did-you-mean) rather than mid-sweep.
    """
    for method in methods:
        registry.get(method).validate(ne=ne, nparts=nproc)
    rows = []
    for method in methods:
        r = run_method(ne, nproc, method, machine=machine, cost=cost, seed=seed)
        rows.append(
            Table2Row(
                method=method.upper() if method != "sfc" else "SFC",
                lb_nelemd=r.quality.lb_nelemd,
                lb_spcv=r.quality.lb_spcv,
                tcv_mbytes=r.quality.total_volume_mbytes(cost.bytes_per_point()),
                edgecut=r.quality.edgecut,
                time_us=r.step_us,
            )
        )
    return rows


def render_table2(rows: list[Table2Row], k: int = 1536, nproc: int = 768) -> str:
    """Render in the paper's layout (metrics as rows, methods as columns)."""
    headers = ["Metric", *(r.method for r in rows)]
    body = [
        ["LB(nelemd)", *(f"{r.lb_nelemd:.3f}" for r in rows)],
        ["LB(spcv)", *(f"{r.lb_spcv:.3f}" for r in rows)],
        ["TCV (Mbytes)", *(f"{r.tcv_mbytes:.2f}" for r in rows)],
        ["edgecut", *(r.edgecut for r in rows)],
        ["Time (usec)", *(f"{r.time_us:.0f}" for r in rows)],
    ]
    return format_table(
        headers, body, title=f"Partition statistics for K={k} on {nproc} processors"
    )
