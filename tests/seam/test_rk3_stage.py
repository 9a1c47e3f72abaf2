"""The SSP-RK3 stage kernels: bit-identical to the NumPy stages they replace.

``rk3_stage`` and the partitioned gather form each stage combination in C
(``repro._kernels.c::rk3_combine``).  These tests hold them to the NumPy
expressions value by value, special values included, and hold the solvers'
steps to the NumPy steps they replaced (``reference_serial.py``).
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.metis import part_graph
from repro.partition import Partition, sfc_partition
from repro.seam import (
    DSSOperator,
    PartitionedDSS,
    PartitionedTransportRun,
    TransportSolver,
    build_geometry,
    cosine_bell,
    rk3_stage,
    solid_body_wind,
)
from repro.seam.shallow_water import ShallowWaterSolver, williamson_tc2

from .reference_serial import reference_sw_step, reference_transport_step

AXIS = np.array([0.3, -0.5, 0.81])
CENTER = np.array([0.6, 0.7, -0.2])


def numpy_stage(stage: int, dt: float, q, qk, r):
    """The stage expressions as the solvers wrote them in NumPy."""
    if stage == 0:
        return q.copy()
    if stage == 1:
        return q + dt * r
    if stage == 2:
        return 0.75 * q + 0.25 * (qk + dt * r)
    return q / 3.0 + 2.0 / 3.0 * (qk + dt * r)


def assert_identical(got: np.ndarray, want: np.ndarray) -> None:
    """Equal values, NaN where NaN, and equal signs of zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


#: Every sign of zero, subnormals, the normal extremes, infinities and NaN.
SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
    2.2250738585072014e-308, 1.0, -3.5, 1.7976931348623157e308,
    -1.7976931348623157e308, np.inf, -np.inf, np.nan,
])


@pytest.mark.parametrize("dt", [0.37, 1e-320, 0.0, 3e300, np.inf])
@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_stage_formulas_on_special_values(stage, dt):
    q, qk, r = (np.ascontiguousarray(c) for c in np.array(
        list(itertools.product(SPECIAL, repeat=3))
    ).T)
    with np.errstate(all="ignore"):
        want = numpy_stage(stage, dt, q, qk, r)
    assert_identical(rk3_stage(stage, dt, q, qk, r, np.empty_like(q)), want)


@pytest.mark.parametrize("alias", ["qk", "r"])
def test_stage_output_may_alias_an_input(alias):
    rng = np.random.default_rng(7)
    q, qk, r = rng.standard_normal((3, 1000))
    want = numpy_stage(2, 0.1, q, qk, r)
    out = {"qk": qk, "r": r}[alias]
    assert rk3_stage(2, 0.1, q, qk, r, out) is out
    assert_identical(out, want)


def _partition(method: str, ne: int, nparts: int) -> Partition:
    if method == "sfc":
        return sfc_partition(ne, nparts)
    from repro.cubesphere import cubed_sphere_mesh
    from repro.graphs import mesh_graph

    return part_graph(mesh_graph(cubed_sphere_mesh(ne)), nparts, method, seed=0)


@pytest.fixture(scope="module")
def small():
    geom = build_geometry(3, 5)
    return geom, PartitionedDSS(geom, sfc_partition(3, 6)), DSSOperator(geom)


def _special_fields(shape, seed):
    """Three random fields with special values at random points."""
    rng = np.random.default_rng(seed)
    fields = rng.standard_normal((3, *shape))
    flat = fields.reshape(3, -1)
    for row in flat:
        spots = rng.choice(row.size, size=len(SPECIAL), replace=False)
        row[spots] = SPECIAL
    return fields


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_fused_gather_matches_gather_of_numpy_stage(small, stage):
    geom, pdss, dss = small
    q, qk, r = _special_fields(geom.local_mass.shape, stage)
    with np.errstate(all="ignore"):
        field = numpy_stage(stage, 0.25, q, qk, r)
        assert_identical(pdss.apply_stage(stage, 0.25, q, qk, r), pdss.apply(field))
        assert_identical(dss.apply_stage(stage, 0.25, q, qk, r), dss.apply(field))


#: (ne, np, method, parts) of the step-identity check, down to one rank.
STEP_CASES = [
    *[(3, 5, m, 6) for m in ("sfc", "rb", "kway")],
    *[(4, 8, m, 48) for m in ("sfc", "rb", "kway")],
    *[(16, 8, m, 96) for m in ("sfc", "rb", "kway")],
    (3, 5, "sfc", 1),
]
STEPS = 3


def _transport_setup(ne: int, npts: int):
    geom = build_geometry(ne, npts)
    return geom, solid_body_wind(geom.xyz, AXIS, 1.0), cosine_bell(geom.xyz, CENTER)


@pytest.mark.parametrize("ne, npts", [(3, 5), (4, 8)])
def test_serial_step_matches_numpy_step(ne, npts):
    geom, wind, q0 = _transport_setup(ne, npts)
    solver = TransportSolver(geom, wind)
    dt = solver.stable_dt(0.4)
    q = want = solver.dss.apply(q0)
    for _ in range(STEPS):
        q = solver.step(q, dt)
        want = reference_transport_step(solver, want, dt)
    assert np.array_equal(q, want)


@pytest.mark.parametrize("ne, npts, method, nparts", STEP_CASES)
def test_partitioned_step_matches_numpy_step(ne, npts, method, nparts):
    geom, wind, q0 = _transport_setup(ne, npts)
    partition = _partition(method, ne, nparts)
    run = PartitionedTransportRun(geom, wind, partition)
    oracle = PartitionedTransportRun(geom, wind, partition)
    dt = run.stable_dt(0.4)
    q, want = run.pdss.apply(q0), oracle.pdss.apply(q0)
    for _ in range(STEPS):
        q = run.step(q, dt)
        want = reference_transport_step(oracle._solver, want, dt)
    assert np.array_equal(q, want)
    got, ref = run.accounting, oracle.accounting
    assert (got.exchanges, got.messages, got.values) == (
        ref.exchanges, ref.messages, ref.values
    )


def test_shallow_water_step_matches_numpy_step():
    geom = build_geometry(3, 6)
    solver, oracle = ShallowWaterSolver(geom), ShallowWaterSolver(geom)
    state = want = williamson_tc2(geom)
    dt = solver.stable_dt(state, 0.4)
    for _ in range(4):
        state = solver.step(state, dt)
        want = reference_sw_step(oracle, want, dt)
    assert np.array_equal(state.v, want.v)
    assert np.array_equal(state.h, want.h)


class TestBadInput:
    @pytest.mark.parametrize("stage", [-1, 4, 1 << 40])
    def test_bad_stage(self, small, stage):
        geom, pdss, dss = small
        q = np.zeros(geom.local_mass.shape)
        exchanges = pdss.accounting.exchanges
        for op in (pdss, dss):
            with pytest.raises(ValueError, match="stage must be 0, 1, 2 or 3"):
                op.apply_stage(stage, 0.1, q, q, q)
        with pytest.raises(ValueError, match="stage must be 0, 1, 2 or 3"):
            rk3_stage(stage, 0.1, q, q, q, np.empty_like(q))
        assert pdss.accounting.exchanges == exchanges

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_bad_shape(self, small, which):
        geom, pdss, dss = small
        fields = [np.zeros(geom.local_mass.shape) for _ in range(3)]
        fields[which] = fields[which][:-1]
        for op in (pdss, dss):
            with pytest.raises(ValueError, match="field shape"):
                op.apply_stage(1, 0.1, *fields)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_bad_dtype(self, small, which):
        geom, pdss, dss = small
        fields = [np.zeros(geom.local_mass.shape) for _ in range(3)]
        fields[which] = fields[which].astype(np.complex128)
        for op in (pdss, dss):
            with pytest.raises(TypeError, match="does not cast to float64"):
                op.apply_stage(1, 0.1, *fields)

    def test_other_dtypes_cast(self, small):
        geom, pdss, dss = small
        q32, qk, r = np.random.default_rng(3).standard_normal(
            (3, *geom.local_mass.shape)
        )
        q32 = q32.astype(np.float32)
        for op in (pdss, dss):
            assert_identical(
                op.apply_stage(2, 0.5, q32, qk, r),
                op.apply_stage(2, 0.5, q32.astype(np.float64), qk, r),
            )


#: Bad calls of the stage kernels and the message each raises;
#: ``z(n)`` is n float64 zeros, ``g`` the (3, 5) grid's field shape.
BAD_INPUTS = {
    "pdss.apply_stage(-1, 0.1, f, f, f)": "ValueError: an SSP-RK3 stage",
    "pdss.apply_stage(4, 0.1, f, f, f)": "ValueError: an SSP-RK3 stage",
    "dss.apply_stage(9, 0.1, f, f, f)": "ValueError: an SSP-RK3 stage",
    "pdss.apply_stage(1, 0.1, f, f, f[:, :2])": "ValueError: field shape",
    "pdss.apply_stage(1, 0.1, f[:1], f[:1], f[:1])": "ValueError: field shape",
    "dss.apply_stage(1, 0.1, f, f[:1], f)": "ValueError: field shape",
    "dss.apply_stage(1, 0.1, f[:1], f[:1], f[:1])": "ValueError: field shape",
    "pdss.apply_stage(1, 0.1, f, f.astype(complex), f)": "TypeError: field dtype",
    "dss.apply_stage(1, 0.1, f, f, f.astype(complex))": "TypeError: field dtype",
    "rk3_stage(5, 0.1, z(4), z(4), z(4), z(4))": "ValueError: an SSP-RK3 stage",
    "rk3_stage(1, 0.1, z(4), z(3), z(4), z(4))": "ValueError: rk3_stage needs",
    "rk3_stage(1, 0.1, z(8)[::2], z(4), z(4), z(4))": "ValueError: rk3_stage needs",
    "rk3_stage(1, 0.1, z(4), z(4), z(4).astype('f4'), z(4))": (
        "ValueError: rk3_stage needs"
    ),
}

_BAD_INPUT_SCRIPT = """
import json, sys
import numpy as np
from repro.partition import sfc_partition
from repro.seam import DSSOperator, PartitionedDSS, build_geometry, rk3_stage

geom = build_geometry(3, 5)
pdss, dss = PartitionedDSS(geom, sfc_partition(3, 6)), DSSOperator(geom)
f = np.ones(geom.local_mass.shape)
z = np.zeros
out = {}
for call in json.loads(sys.argv[1]):
    try:
        eval(call)
        out[call] = None
    except (ValueError, TypeError) as exc:
        out[call] = f"{type(exc).__name__}: {exc}"
print(json.dumps(out))
"""


def test_bad_input_raises_without_crashing():
    """Each bad call raises in a child interpreter that survives them all
    (a kernel reading past an array could kill it)."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]
    )}
    run = subprocess.run(
        [sys.executable, "-c", _BAD_INPUT_SCRIPT, json.dumps(list(BAD_INPUTS))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    for call, want in BAD_INPUTS.items():
        assert (got[call] or "").startswith(want), (call, got[call])
