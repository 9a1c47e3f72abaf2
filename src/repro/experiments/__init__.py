"""Experiment harness: every table and figure of the paper + ablations."""

from .ablations import (
    GapPoint,
    ScheduleResult,
    hilbert_peano_gap_study,
    network_ablation,
    refinement_order_study,
)
from .convergence import ConvergencePoint, transport_convergence
from .future_scaling import FutureScalingPoint, future_scaling_study, scaled_p690
from .sensitivity import SensitivityPoint, network_sensitivity
from .figures import (
    MethodResult,
    best_metis,
    run_method,
    speedup_sweep,
)
from ..report import format_series, format_table
from .resolutions import (
    PAPER_RESOLUTIONS,
    Resolution,
    admissible_nprocs,
    resolution_by_k,
)
from .table2 import TABLE2_METHODS, Table2Row, render_table2, table2

__all__ = [
    "ConvergencePoint",
    "FutureScalingPoint",
    "GapPoint",
    "MethodResult",
    "PAPER_RESOLUTIONS",
    "Resolution",
    "ScheduleResult",
    "SensitivityPoint",
    "TABLE2_METHODS",
    "Table2Row",
    "admissible_nprocs",
    "best_metis",
    "format_series",
    "future_scaling_study",
    "format_table",
    "hilbert_peano_gap_study",
    "network_ablation",
    "network_sensitivity",
    "refinement_order_study",
    "render_table2",
    "resolution_by_k",
    "run_method",
    "scaled_p690",
    "speedup_sweep",
    "table2",
    "transport_convergence",
]
