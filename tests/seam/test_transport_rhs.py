"""The transport right-hand side kernel against its NumPy oracle.

``TransportSolver.rhs`` is one ``transport_rhs`` kernel call
(``repro/_kernels.c``); the NumPy passes it replaced are the oracle
``reference_serial.reference_transport_rhs``.  Where the pinned SEAM
inputs round as they did when the digests of ``test_parallel.py`` were
taken, the kernel must give the oracle's bits; elsewhere a BLAS may sum
in another order, and the kernel must agree to 1e-14 relative.  The
portable ``fma()`` path must give the vector path's bits everywhere.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.seam import TransportSolver, build_geometry, cosine_bell, solid_body_wind

from . import test_parallel
from .reference_serial import reference_transport_rhs
from .test_rk3_stage import assert_identical

AXIS = np.array([0.3, -0.5, 0.81])
CENTER = np.array([0.6, 0.7, -0.2])

#: (ne, np) of the oracle checks: every np at Ne 2-4, and the paper's K=1536.
CASES = [
    (ne, npts) for npts in (2, 3, 4, 5, 6, 8, 9, 12) for ne in (2, 3, 4)
] + [(16, 8)]


@pytest.fixture(scope="module")
def rounds_as_pinned() -> bool:
    """Whether this platform rounds the pinned (3, 5) transport inputs,
    the oracle's right-hand side among them, to the pinned digest."""
    geom = build_geometry(3, 5)
    wind = solid_body_wind(geom.xyz, test_parallel.Z, 1.0)
    q0 = cosine_bell(geom.xyz, test_parallel.X)
    rhs = reference_transport_rhs(TransportSolver(geom, wind), q0)
    digest = test_parallel._digest(geom.xyz, geom.jac, geom.ginv, wind, q0, rhs)
    return digest == test_parallel.TestPartitionedTransportDigests.INPUTS


def _solver(ne: int, npts: int) -> TransportSolver:
    geom = build_geometry(ne, npts)
    return TransportSolver(geom, solid_body_wind(geom.xyz, AXIS, 1.0))


def _fields(solver: TransportSolver, seed: int) -> list[np.ndarray]:
    """A cosine bell, a random field, and a random field with ±0.0,
    ±inf and NaN at random points."""
    shape = solver.jac.shape
    rng = np.random.default_rng(seed)
    special = rng.standard_normal(shape)
    flat = special.reshape(-1)
    spots = rng.choice(flat.size, size=5, replace=False)
    flat[spots] = [0.0, -0.0, np.inf, -np.inf, np.nan]
    bell = cosine_bell(solver.geom.xyz, CENTER)
    return [bell, rng.standard_normal(shape), special]


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    """NaN and infinities where the oracle has them; finite values to
    1e-14 of the field's largest finite magnitude."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    inf = np.isinf(want)
    assert np.array_equal(got[inf], want[inf])
    finite = np.isfinite(want)
    scale = np.abs(want[finite]).max(initial=0.0)
    assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= 1e-14 * scale


@pytest.mark.parametrize("ne, npts", CASES)
def test_kernel_matches_numpy_oracle(ne, npts, rounds_as_pinned):
    solver = _solver(ne, npts)
    for q in _fields(solver, seed=ne * 100 + npts):
        with np.errstate(all="ignore"):
            want = reference_transport_rhs(solver, q)
            got = solver.rhs(q)
        if rounds_as_pinned:
            assert_identical(got, want)
        else:
            assert_close(got, want)


def test_rhs_returns_a_new_array_each_call():
    solver = _solver(2, 4)
    q = cosine_bell(solver.geom.xyz, CENTER)
    first, second = solver.rhs(q), solver.rhs(q)
    assert first is not second and not np.shares_memory(first, second)
    assert np.array_equal(first, second)
    assert solver.rhs_evals == 2


def test_rhs_accepts_any_layout_and_safe_dtype():
    solver = _solver(3, 5)
    q = np.random.default_rng(5).standard_normal(solver.jac.shape)
    want = solver.rhs(q)
    assert_identical(solver.rhs(np.asfortranarray(q)), want)
    q32 = q.astype(np.float32)
    assert_identical(solver.rhs(q32), solver.rhs(q32.astype(np.float64)))


_PORTABLE_SCRIPT = """
import sys
import numpy as np
from repro import _native
sys.path.insert(0, sys.argv[3])
from tests.seam.test_transport_rhs import CASES, _fields, _solver

assert "-DREPRO_NO_AVX2" in _native._cflags()
out = {}
for ne, npts in CASES:
    solver = _solver(ne, npts)
    with np.errstate(all="ignore"):
        for k, q in enumerate(_fields(solver, seed=ne * 100 + npts)):
            out[f"{ne}_{npts}_{k}"] = solver.rhs(q)
np.savez(sys.argv[1], **out)
print(sys.argv[2])
"""


def test_portable_path_gives_the_vector_paths_bits(tmp_path):
    """A library built with ``-DREPRO_NO_AVX2`` (through ``REPRO_CFLAGS``
    into a fresh kernel cache) computes every case with C99 ``fma()``;
    its values must be this process's bit for bit."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
        "REPRO_CFLAGS": f"{os.environ.get('REPRO_CFLAGS', '')} -DREPRO_NO_AVX2",
    }
    saved = tmp_path / "portable.npz"
    run = subprocess.run(
        [sys.executable, "-c", _PORTABLE_SCRIPT, str(saved), "done",
         str(Path(__file__).resolve().parents[2])],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "done"
    portable = np.load(saved)
    assert len(portable.files) == 3 * len(CASES)
    for ne, npts in CASES:
        solver = _solver(ne, npts)
        with np.errstate(all="ignore"):
            for k, q in enumerate(_fields(solver, seed=ne * 100 + npts)):
                assert_identical(portable[f"{ne}_{npts}_{k}"], solver.rhs(q))


#: Bad calls of the kernel and of ``rhs``, and the message each raises;
#: ``s`` is the (3, 5) grid's solver, ``f`` a field of its shape and
#: ``k(nelem, np)`` the raw kernel call with null arrays.
BAD_INPUTS = {
    "k(-1, 5)": "ValueError: transport_rhs needs",
    "k(-(1 << 62), 5)": "ValueError: transport_rhs needs",
    "k(0, 1)": "ValueError: transport_rhs needs",
    "k(3, 0)": "ValueError: transport_rhs needs",
    "k(3, -4)": "ValueError: transport_rhs needs",
    "k(1, (1 << 20) + 1)": "ValueError: transport_rhs needs",
    "k(1, 1 << 40)": "ValueError: transport_rhs needs",
    "s.rhs(f[:-1])": "ValueError: field shape",
    "s.rhs(f[:, :, ::2])": "ValueError: field shape",
    "s.rhs(f.reshape(-1))": "ValueError: field shape",
    "s.rhs(f.reshape(f.shape[0], -1))": "ValueError: field shape",
    "s.rhs(np.ones(()))": "ValueError: field shape",
    "s.rhs(f.astype(complex))": "TypeError: field dtype",
    "s.rhs(np.asfortranarray(f).astype(complex))": "TypeError: field dtype",
    "s.rhs(f.astype(object))": "TypeError: field dtype",
}

_BAD_INPUT_SCRIPT = """
import json, sys
import numpy as np
from repro._native import LIB, check
from repro.seam import TransportSolver, build_geometry, solid_body_wind

geom = build_geometry(3, 5)
s = TransportSolver(geom, solid_body_wind(geom.xyz, np.array([0.0, 0.0, 1.0]), 1.0))
f = np.random.default_rng(0).standard_normal(geom.jac.shape)
k = lambda nelem, npts: check(LIB.transport_rhs(nelem, npts, 0, 0, 0, 0, 0, 0))
out = {}
for call in json.loads(sys.argv[1]):
    try:
        eval(call)
        out[call] = None
    except (ValueError, TypeError) as exc:
        out[call] = f"{type(exc).__name__}: {exc}"
# A non-contiguous field of the right shape is copied, not refused.
out["strided"] = bool(np.array_equal(s.rhs(np.asfortranarray(f)), s.rhs(f)))
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
    assert got["strided"] is True
