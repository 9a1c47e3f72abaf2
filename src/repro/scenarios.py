"""Named per-element weight scenarios for dynamic load balancing.

The weighted-partitioning papers this extension reproduces (the
Vlasiator case study, the reservoir-simulation Hilbert work, the AMR
literature the paper's introduction cites) all share one workload
shape: a per-element computational weight field that *moves* over
time.  This module provides deterministic generators for the canonical
shapes on the cubed-sphere, addressable by name so a
:class:`~repro.service.requests.PartitionRequest` (and the HTTP
server behind it) can say ``{"scenario": "storm", "step": 17}``
instead of shipping ``6 Ne^2`` floats:

* ``storm``    — a Gaussian weight bump circling the equator (a storm
  system tracked by physics-heavy columns);
* ``daynight`` — insolation load: the sunlit hemisphere costs more
  (photochemistry), with the subsolar point circling the sphere;
* ``amr``      — an adaptive refine/coarsen cycle: a cap region is
  refined ``level`` times (weight ``4^level`` leaves per element) with
  the level breathing 0 → max → 0 over the cycle.

Every generator is a pure function of ``(ne, step, params)`` — the
same name + step + params always produce bit-identical weights in any
process, which is what makes scenario requests content-addressable
and cacheable.  All weights are strictly positive and finite by
construction (enforced again at the service boundary by
:func:`repro.partition.registry.validate_weights`).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Scenario",
    "UnknownScenarioError",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "scenario_weights",
    "specs",
]


class UnknownScenarioError(ValueError):
    """No weight scenario registered under the requested name."""


@dataclass(frozen=True)
class Scenario:
    """A registered weight-scenario generator.

    Attributes:
        name: Registry key (what requests name in ``"scenario"``).
        generate: ``(ne, step, **params) -> (6 ne^2,)`` float64 weights.
        description: One-line summary for listings.
        params: Accepted parameter names and their defaults.
    """

    name: str
    generate: Callable[..., np.ndarray]
    description: str = ""
    params: tuple[tuple[str, float], ...] = ()


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(spec: Scenario, *, replace: bool = False) -> Scenario:
    """Add a scenario to the registry (mirrors the partitioner registry)."""
    if not spec.name or not spec.name.isidentifier():
        raise ValueError(f"scenario name must be an identifier, got {spec.name!r}")
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> Scenario:
    """Resolve a scenario name, with a did-you-mean on typos."""
    spec = _REGISTRY.get(name)
    if spec is not None:
        return spec
    close = difflib.get_close_matches(str(name), _REGISTRY, n=1, cutoff=0.5)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise UnknownScenarioError(
        f"unknown scenario {name!r}; choose from {available_scenarios()}{hint}"
    )


def available_scenarios() -> tuple[str, ...]:
    """Registered scenario names, in registration order."""
    return tuple(_REGISTRY)


def specs() -> tuple[Scenario, ...]:
    """Registered scenarios, in registration order."""
    return tuple(_REGISTRY.values())


def scenario_weights(
    name: str, ne: int, step: int = 0, **params
) -> np.ndarray:
    """Generate the weights of scenario ``name`` at trajectory ``step``.

    Args:
        name: Registered scenario name.
        ne: Elements per cube-face edge.
        step: Trajectory step (scenarios are periodic in ``nsteps``).
        **params: Scenario parameters (see each scenario's ``params``).

    Returns:
        ``(6 ne^2,)`` float64 strictly-positive weights.

    Raises:
        UnknownScenarioError: Unregistered name (with a did-you-mean).
        ValueError: A parameter the scenario does not accept.
    """
    spec = get_scenario(name)
    known = {k for k, _ in spec.params}
    unknown = set(params) - known
    if unknown:
        raise ValueError(
            f"scenario {name!r} does not accept parameters "
            f"{sorted(unknown)}; accepted: {sorted(known)}"
        )
    weights = spec.generate(int(ne), int(step), **params)
    return np.ascontiguousarray(weights, dtype=np.float64)


def _center_geometry(ne: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element-center ``(lon, sin(lat), cos(lat))`` at ``ne``.

    All three are cached on the memoized mesh, so a trajectory computes
    them once per resolution, not once per step.
    """
    from .cubesphere.mesh import cubed_sphere_mesh

    mesh = cubed_sphere_mesh(ne)
    lon, _ = mesh.centers_lonlat
    sin_lat, cos_lat = mesh.center_lat_trig
    return lon, sin_lat, cos_lat


def _angular_distance(
    lon: np.ndarray,
    sin_lat: np.ndarray,
    cos_lat: np.ndarray,
    lon0: float,
    lat0: float,
) -> np.ndarray:
    """Great-circle distance (radians) from every center to one point."""
    return np.arccos(
        np.clip(
            sin_lat * np.sin(lat0)
            + cos_lat * np.cos(lat0) * np.cos(lon - lon0),
            -1.0,
            1.0,
        )
    )


def _storm(
    ne: int,
    step: int,
    nsteps: float = 100,
    amplitude: float = 8.0,
    sigma: float = 0.5,
    lat0: float = 0.0,
) -> np.ndarray:
    """Gaussian weight bump circling the sphere at latitude ``lat0``."""
    lon, sin_lat, cos_lat = _center_geometry(ne)
    lon0 = 2.0 * np.pi * (step % nsteps) / nsteps
    d = _angular_distance(lon, sin_lat, cos_lat, lon0, float(lat0))
    return 1.0 + float(amplitude) * np.exp(-0.5 * (d / float(sigma)) ** 2)


def _daynight(
    ne: int,
    step: int,
    nsteps: float = 100,
    day_weight: float = 4.0,
    night_weight: float = 1.0,
) -> np.ndarray:
    """Insolation load: sunlit columns cost ``day_weight``, dark ones
    ``night_weight``, blended by the cosine of the solar zenith angle."""
    if not 0 < night_weight <= day_weight:
        raise ValueError(
            "daynight needs 0 < night_weight <= day_weight, got "
            f"night_weight={night_weight}, day_weight={day_weight}"
        )
    lon, _, cos_lat = _center_geometry(ne)
    lon_sun = 2.0 * np.pi * (step % nsteps) / nsteps
    cosz = np.maximum(cos_lat * np.cos(lon - lon_sun), 0.0)
    return float(night_weight) + (float(day_weight) - float(night_weight)) * cosz


def _amr(
    ne: int,
    step: int,
    nsteps: float = 100,
    max_level: float = 2,
    radius: float = 0.7,
    lon0: float = 0.0,
    lat0: float = 0.3,
) -> np.ndarray:
    """Refine/coarsen cycle: a fixed cap is refined ``level`` times,
    with the level running 0 -> max_level -> 0 over one cycle (weight
    ``4^level`` = leaves per refined quad element)."""
    max_level = int(max_level)
    if max_level < 1:
        raise ValueError(f"amr needs max_level >= 1, got {max_level}")
    d = _angular_distance(*_center_geometry(ne), float(lon0), float(lat0))
    # Triangle wave over the cycle: 0, 1, ..., max, ..., 1 (period
    # 2 * max_level phases spread over nsteps).
    phase = (step % nsteps) / nsteps * (2 * max_level)
    level = int(round(max_level - abs(phase - max_level)))
    weights = np.ones_like(d)
    weights[d < float(radius)] = 4.0 ** level
    return weights


register_scenario(Scenario(
    name="storm",
    generate=_storm,
    description="Gaussian weight bump circling the sphere (moving storm)",
    params=(
        ("nsteps", 100), ("amplitude", 8.0), ("sigma", 0.5), ("lat0", 0.0),
    ),
))
register_scenario(Scenario(
    name="daynight",
    generate=_daynight,
    description="sunlit-hemisphere load rotating with the subsolar point",
    params=(("nsteps", 100), ("day_weight", 4.0), ("night_weight", 1.0)),
))
register_scenario(Scenario(
    name="amr",
    generate=_amr,
    description="refine/coarsen cycle: a cap's leaf count breathes 0->max->0",
    params=(
        ("nsteps", 100), ("max_level", 2), ("radius", 0.7),
        ("lon0", 0.0), ("lat0", 0.3),
    ),
))
