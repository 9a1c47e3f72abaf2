"""Ablation studies beyond the paper's tables and figures.

Three studies answer questions the paper raises but leaves open:

* :func:`refinement_order_study` — "The impact that refinement order
  has on the Hilbert-Peano curve should also be explored": sweep every
  distinct Hilbert/Peano nesting order for a resolution and compare
  curve locality, partition quality and simulated performance;
* :func:`hilbert_peano_gap_study` — why is the Hilbert-Peano win at
  K=1944 (7% at 4 elements/proc) smaller than the pure-Hilbert win at
  K=384 (13% at the same 4 elements/proc)?  Compares both at equal
  elements-per-processor;
* :func:`network_ablation` — how much of the SFC advantage is SMP-node
  rank locality?  Re-times every method on a counterfactual machine
  with a flat (single-tier) network.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.spec import FLAT_NETWORK_MACHINE, P690_CLUSTER
from ..sfc.analysis import CurveLocality, analyze_curve
from ..sfc.factorization import all_schedules
from ..sfc.generator import generate_curve
from .figures import MethodResult, best_metis, run_method, speedup_sweep

__all__ = [
    "ScheduleResult",
    "refinement_order_study",
    "hilbert_peano_gap_study",
    "network_ablation",
]


@dataclass(frozen=True)
class ScheduleResult:
    """One refinement schedule's locality and performance."""

    schedule: str
    locality: CurveLocality
    sfc_result: MethodResult


def refinement_order_study(
    ne: int = 18, nproc: int = 486, nsegments: int | None = None
) -> list[ScheduleResult]:
    """Evaluate every Hilbert/Peano nesting order at a resolution.

    Args:
        ne: Face edge size (default 18, the paper's Hilbert-Peano
            case; schedules are permutations of one H and two P).
        nproc: Processor count for the partition-quality comparison.
        nsegments: Segment count for the locality metrics (defaults to
            elements per face / segments such that segments match the
            per-face share of processors).

    Returns:
        One :class:`ScheduleResult` per distinct schedule.
    """
    if nsegments is None:
        nsegments = max(1, nproc // 6)
    out = []
    for schedule in all_schedules(ne):
        curve = generate_curve(schedule=schedule)
        locality = analyze_curve(curve, nsegments=min(nsegments, len(curve)))
        result = run_method(ne, nproc, "sfc", schedule=schedule)
        out.append(
            ScheduleResult(schedule=schedule, locality=locality, sfc_result=result)
        )
    return out


@dataclass(frozen=True)
class GapPoint:
    """SFC-vs-best-METIS comparison at fixed elements per processor."""

    ne: int
    k: int
    nproc: int
    elems_per_proc: int
    curve_family: str
    sfc_speedup: float
    best_metis_speedup: float

    @property
    def advantage(self) -> float:
        """Fractional SFC advantage over the best METIS partition."""
        return self.sfc_speedup / self.best_metis_speedup - 1.0


def hilbert_peano_gap_study(elems_per_proc: int = 4) -> list[GapPoint]:
    """Compare the SFC advantage across curve families at equal load.

    The paper compares K=384 on 96 procs (13% win, Hilbert) with
    K=1944 on 486 procs (7% win, Hilbert-Peano), both at 4 elements
    per processor.
    """
    from ..sfc.factorization import factorize_2_3

    points = []
    for ne in (8, 9, 16, 18):
        k = 6 * ne * ne
        if k % elems_per_proc:
            continue
        nproc = k // elems_per_proc
        if nproc > P690_CLUSTER.max_procs:
            continue
        results = speedup_sweep(ne, nprocs=[nproc])
        sfc = results["sfc"][0]
        metis = best_metis(results, 0)
        n, m = factorize_2_3(ne)
        family = "hilbert" if m == 0 else ("m-peano" if n == 0 else "hilbert-peano")
        points.append(
            GapPoint(
                ne=ne,
                k=k,
                nproc=nproc,
                elems_per_proc=elems_per_proc,
                curve_family=family,
                sfc_speedup=sfc.speedup,
                best_metis_speedup=metis.speedup,
            )
        )
    return points


def network_ablation(
    ne: int = 8,
    nproc: int = 384,
    methods: tuple[str, ...] = ("sfc", "rb", "kway", "tv"),
) -> dict[str, dict[str, MethodResult]]:
    """Time every method on the P690 and on a flat-network machine.

    Returns:
        ``{method: {"p690": result, "flat": result}}``.
    """
    out: dict[str, dict[str, MethodResult]] = {}
    for method in methods:
        out[method] = {
            "p690": run_method(ne, nproc, method, machine=P690_CLUSTER),
            "flat": run_method(ne, nproc, method, machine=FLAT_NETWORK_MACHINE),
        }
    return out
