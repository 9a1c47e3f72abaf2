"""Performance sweeps reproducing the paper's Figures 7-10.

Figures 7/8 plot the speedup of SEAM execution time versus a single
processor for K=384 (Hilbert) and K=486 (m-Peano); Figures 9/10 plot
the corresponding total sustained Gflop/s for K=384 and K=1536.  Each
sweep partitions the cubed-sphere with every requested method at every
admissible processor count and pushes the result through the machine
model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.perf import PerformanceModel, StepTiming
from ..machine.spec import MachineSpec, P690_CLUSTER
from ..partition import registry
from ..partition.base import Partition
from ..partition.metrics import PartitionQuality
from ..partition.pipeline import evaluate_stage, graph_stage, partition_stage
from ..seam.cost import DEFAULT_COST_MODEL, SEAMCostModel
from .resolutions import admissible_nprocs

__all__ = [
    "MethodResult",
    "run_method",
    "speedup_sweep",
    "best_metis",
]


def _metis_methods() -> tuple[str, ...]:
    """The registered METIS-family methods, read at call time."""
    return tuple(s.name for s in registry.specs() if s.family == "metis")


@dataclass(frozen=True)
class MethodResult:
    """One (method, nproc) point of a sweep.

    Attributes:
        method: Partitioner label.
        nproc: Processor count.
        quality: Partition metrics (Table-2 quantities).
        timing: Machine-model timing.
        speedup: Time(1 proc) / time(nproc).
    """

    method: str
    nproc: int
    quality: PartitionQuality
    timing: StepTiming
    speedup: float

    @property
    def gflops(self) -> float:
        return self.timing.sustained_flops / 1.0e9

    @property
    def step_us(self) -> float:
        return self.timing.step_s * 1.0e6


def run_method(
    ne: int,
    nproc: int,
    method: str,
    machine: MachineSpec = P690_CLUSTER,
    cost: SEAMCostModel = DEFAULT_COST_MODEL,
    seed: int = 0,
    schedule: str | None = None,
    partition: Partition | None = None,
) -> MethodResult:
    """Partition, evaluate and time one method at one processor count.

    Args:
        partition: Optional precomputed partition (e.g. from the
            service engine); skips the partitioning step.
    """
    graph = graph_stage(ne, cost.npts)
    if partition is None:
        partition = partition_stage(
            method, ne, nproc, seed=seed, schedule=schedule
        )
    quality = evaluate_stage(graph, partition)
    model = PerformanceModel(machine, cost)
    timing = model.step_timing(partition)
    speedup = model.serial_step_time(partition.nvertices) / timing.step_s
    return MethodResult(
        method=method, nproc=nproc, quality=quality, timing=timing, speedup=speedup
    )


def speedup_sweep(
    ne: int,
    methods: tuple[str, ...] | None = None,
    nprocs: list[int] | None = None,
    machine: MachineSpec = P690_CLUSTER,
    cost: SEAMCostModel = DEFAULT_COST_MODEL,
    seed: int = 0,
    engine=None,
) -> dict[str, list[MethodResult]]:
    """Full sweep over processor counts for several methods.

    Args:
        ne: Resolution (elements per face edge).
        methods: Partitioners to compare; defaults to ``sfc`` and every
            registered METIS-family method.
        nprocs: Processor counts; defaults to the divisors of
            ``K = 6 ne^2`` up to the machine's job limit.
        machine: Machine model.
        cost: Cost model.
        seed: Partitioner seed.
        engine: Optional :class:`~repro.service.engine.PartitionEngine`;
            when given, all sweep points are served as one batch
            (deduplicated, cached, computed in parallel) instead of
            partitioning serially in-process.  Results are bit-identical
            either way.

    Returns:
        ``{method: [MethodResult per nproc]}``.
    """
    if methods is None:
        methods = ("sfc", *_metis_methods())
    # Fail fast (did-you-mean, capability checks) before sweeping.
    for method in methods:
        registry.get(method).validate(ne=ne, nparts=1)
    k = 6 * ne * ne
    if nprocs is None:
        nprocs = admissible_nprocs(k, machine.max_procs)
    if engine is None:
        return {
            method: [
                run_method(ne, nproc, method, machine=machine, cost=cost, seed=seed)
                for nproc in nprocs
            ]
            for method in methods
        }
    from ..service.requests import PartitionRequest

    requests = [
        PartitionRequest(ne=ne, nparts=nproc, method=method, seed=seed)
        for method in methods
        for nproc in nprocs
    ]
    responses = iter(engine.run(requests))
    return {
        method: [
            run_method(
                ne,
                nproc,
                method,
                machine=machine,
                cost=cost,
                seed=seed,
                partition=next(responses).to_partition(),
            )
            for nproc in nprocs
        ]
        for method in methods
    }


def best_metis(results: dict[str, list[MethodResult]], index: int) -> MethodResult:
    """The best METIS result (highest speedup) at one sweep index.

    Mirrors the paper's figures, which plot "SFC vs *best* METIS
    partitioning".
    """
    candidates = [results[m][index] for m in _metis_methods() if m in results]
    if not candidates:
        raise ValueError("no METIS methods present in the sweep")
    return max(candidates, key=lambda r: r.speedup)
