"""SEAM substrate: spectral-element machinery and cost accounting.

A runnable analog of the NCAR Spectral Element Atmospheric Model's
dynamical core: GLL collocation, gnomonic element geometry, direct
stiffness summation, a conservative transport solver, and the
flop/byte cost model that drives the performance reproduction.
"""

from .cost import DEFAULT_COST_MODEL, SEAMCostModel
from .diagnostics import ErrorNorms, conservation_drift, error_norms
from .parallel import (
    ExchangeAccounting,
    PartitionedDSS,
    PartitionedTransportRun,
)
from .shallow_water import ShallowWaterSolver, SWState, williamson_tc2
from .dss import (
    DSSOperator,
    PointMap,
    build_halo_schedule,
    build_point_map,
    clear_dss_memo,
    rk3_stage,
    shared_dss_operator,
)
from .element import (
    ElementGeometry,
    GridGeometry,
    build_geometry,
    clear_geometry_cache,
)
from .gll import GLLBasis, gll_basis, legendre_and_derivative
from .transport import (
    TransportSolver,
    advect,
    cosine_bell,
    rotate_about_axis,
    solid_body_wind,
)

__all__ = [
    "DEFAULT_COST_MODEL",
    "DSSOperator",
    "ErrorNorms",
    "ExchangeAccounting",
    "PartitionedDSS",
    "PartitionedTransportRun",
    "SWState",
    "ShallowWaterSolver",
    "ElementGeometry",
    "GLLBasis",
    "GridGeometry",
    "PointMap",
    "SEAMCostModel",
    "TransportSolver",
    "advect",
    "build_geometry",
    "build_halo_schedule",
    "build_point_map",
    "clear_dss_memo",
    "clear_geometry_cache",
    "conservation_drift",
    "cosine_bell",
    "error_norms",
    "gll_basis",
    "legendre_and_derivative",
    "rk3_stage",
    "rotate_about_axis",
    "shared_dss_operator",
    "solid_body_wind",
    "williamson_tc2",
]
