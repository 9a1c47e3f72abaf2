"""Extension — the shallow-water dynamical core (paper ref. [9]).

Validates and times the nonlinear SW solver: Williamson TC2 held
steady (the geostrophic-balance benchmark every SW dynamical core must
pass), with per-step throughput measured at SEAM's np=8 — the numbers
behind the cost model's flops-per-element accounting.

Also measures the batched-engine speedups against the preserved
pre-batching reference implementations (``tests/seam/reference_serial.py``):
RK3 step, fused DSS velocity projection, and geometry build, written
to ``results/shallow_water_tc2.data.json``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.experiments import format_table
from repro.seam import ShallowWaterSolver, build_geometry, williamson_tc2


def _hold_tc2(ne: int, npts: int, t_end: float):
    geom = build_geometry(ne, npts)
    solver = ShallowWaterSolver(geom)
    state0 = williamson_tc2(geom)
    state = solver.run(state0, t_end=t_end, cfl=0.4)
    return {
        "ne": ne,
        "npts": npts,
        "dh": float(np.abs(state.h - state0.h).max()),
        "dv": float(np.abs(state.v - state0.v).max()),
        "mass_drift": abs(solver.total_mass(state) - solver.total_mass(state0))
        / solver.total_mass(state0),
        "energy_drift": abs(
            solver.total_energy(state) - solver.total_energy(state0)
        )
        / solver.total_energy(state0),
        "rhs_evals": solver.rhs_evals,
    }


def test_tc2_hold_reproduction(benchmark, save_artifact):
    results = benchmark.pedantic(
        lambda: [_hold_tc2(2, 6, 0.5), _hold_tc2(3, 8, 0.5)],
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            r["ne"],
            r["npts"],
            f"{r['dh']:.2e}",
            f"{r['dv']:.2e}",
            f"{r['mass_drift']:.1e}",
            f"{r['energy_drift']:.1e}",
            r["rhs_evals"],
        ]
        for r in results
    ]
    save_artifact(
        "shallow_water_tc2",
        format_table(
            ["Ne", "np", "max|dh|", "max|dv|", "mass drift", "energy drift", "RHS evals"],
            rows,
            title="Williamson TC2 steady-state hold (t = 0.5)",
        ),
    )
    for r in results:
        assert r["dh"] < 1e-3
        assert r["mass_drift"] < 1e-12
        assert r["energy_drift"] < 1e-8
    # Higher order holds the balance tighter.
    assert results[1]["dh"] < results[0]["dh"]


@pytest.mark.parametrize("ne", [2, 4], ids=lambda n: f"ne{n}")
def test_sw_step_throughput(benchmark, ne):
    geom = build_geometry(ne, 8)
    solver = ShallowWaterSolver(geom)
    state = williamson_tc2(geom)
    dt = solver.stable_dt(state, 0.4)
    result = benchmark(solver.step, state, dt)
    assert np.isfinite(result.h).all()


def _best(fn, inner: int = 1, repeats: int = 5) -> float:
    """Best-of wall seconds for ``inner`` calls of ``fn``, per call."""
    fn()  # warm
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (perf_counter() - t0) / inner)
    return best


def test_batched_engine_speedup(save_artifact):
    """Before/after table: batched engine vs the pre-PR reference.

    The "before" side is the preserved historical implementation
    (einsum derivatives, per-component ``np.add.at`` DSS, per-element
    geometry loop); "after" is the shipping batched engine.  One RK3
    step must agree to <= 1e-12 — the speedup is free of accuracy
    loss.
    """
    from tests.seam.reference_serial import (
        ReferenceDSS,
        ReferenceShallowWaterSolver,
        reference_element_geometry,
    )
    from repro.seam.element import _build_grid_geometry

    ne, npts = 3, 8
    geom = build_geometry(ne, npts)
    state = williamson_tc2(geom)
    new_solver = ShallowWaterSolver(geom)
    old_solver = ReferenceShallowWaterSolver(geom)
    dt = 0.5 * new_solver.stable_dt(state, 0.4)

    # Equivalence first: the speedup must not change the answer.
    s_new = new_solver.step(state, dt)
    s_old = old_solver.step(state.copy(), dt)
    dv = float(np.abs(s_new.v - s_old.v).max())
    dh = float(np.abs(s_new.h - s_old.h).max())
    assert dv < 1e-12 and dh < 1e-12

    # RK3 step.
    step_new = _best(lambda: new_solver.step(state, dt), inner=10)
    step_old = _best(lambda: old_solver.step(state, dt), inner=3)

    # DSS velocity projection: one fused (nelem, np, np, 3) apply vs
    # the historical per-component loop.
    old_dss = ReferenceDSS(geom)
    vec = np.random.default_rng(0).standard_normal((geom.nelem, npts, npts, 3))
    out = np.empty_like(vec)
    assert np.abs(
        new_solver.dss.apply(vec) - old_dss.apply_vector(vec)
    ).max() < 1e-12
    dss_new = _best(lambda: new_solver.dss.apply(vec, out=out), inner=500)
    dss_old = _best(lambda: old_dss.apply_vector(vec), inner=50)

    # Geometry build at ne=8: batched per-face stacks vs the
    # historical per-element loop.
    ne_geo = 8
    mesh = build_geometry(ne_geo, npts).mesh
    basis = build_geometry(ne_geo, npts).basis
    geo_new = _best(lambda: _build_grid_geometry(ne_geo, npts), inner=3)

    def old_geometry_loop() -> None:
        for gid in range(mesh.nelem):
            reference_element_geometry(mesh, basis, gid)

    geo_old = _best(old_geometry_loop, inner=1, repeats=3)

    rows = [
        ["RK3 step (ne=3, np=8)", f"{1e3 * step_old:.2f} ms",
         f"{1e3 * step_new:.2f} ms", f"{step_old / step_new:.1f}x"],
        ["DSS apply, 3-comp (ne=3, np=8)", f"{1e6 * dss_old:.1f} us",
         f"{1e6 * dss_new:.1f} us", f"{dss_old / dss_new:.1f}x"],
        [f"geometry build (ne={ne_geo}, np=8)", f"{1e3 * geo_old:.2f} ms",
         f"{1e3 * geo_new:.2f} ms", f"{geo_old / geo_new:.1f}x"],
    ]
    save_artifact(
        "shallow_water_tc2_speedup",
        format_table(
            ["operation", "before", "after", "speedup"],
            rows,
            title="Batched SEAM engine vs pre-batching reference",
        ),
        data={
            "ne": ne,
            "npts": npts,
            "step_before_s": step_old,
            "step_after_s": step_new,
            "step_speedup": step_old / step_new,
            "dss_apply_before_s": dss_old,
            "dss_apply_after_s": dss_new,
            "dss_apply_speedup": dss_old / dss_new,
            "geometry_ne": ne_geo,
            "geometry_before_s": geo_old,
            "geometry_after_s": geo_new,
            "geometry_speedup": geo_old / geo_new,
            "step_max_abs_dv": dv,
            "step_max_abs_dh": dh,
        },
    )
    # Acceptance floors: >=3x RK3 step, >=5x DSS apply.
    assert step_old / step_new >= 3.0
    assert dss_old / dss_new >= 5.0
