"""Partitioned SEAM workload: shallow transport steps under an SFC partition.

Advects a cosine bell by solid-body rotation on the Ne=16 (K=1536)
cubed-sphere at np=8 Gauss-Lobatto points per element edge, with the
elements spread over 96 ranks by the paper's SFC partitioner.  One
operation is one SSP RK3 step of
:class:`repro.seam.PartitionedTransportRun`: three right-hand-side
evaluations and three partitioned DSS projections, each DSS gathering
rank-local sums, exchanging shared boundary points between ranks and
scattering the averages back.

The seed picks the bell's centre and the rotation axis.  Set-up builds
the grid geometry, the partition and the per-rank exchange layout,
repeated :data:`SETUP_REPEATS` times with the geometry cache cleared,
half before measuring and half after.  Every set-up and every quarter
second of steps is read against :func:`gauge.seam_kernel`, timed just
before it.

Checks: two steps of the partitioned run equal two steps of the serial
:class:`repro.seam.TransportSolver` to 1e-12, and after the measured
steps the field is finite and its mass is conserved to 1e-10.

With tracing on, the measured steps run under a tracing
:class:`repro.telemetry.TelemetrySession`: the DSS time comes from the
program's own ``pdss_apply`` spans.  The program has no spans for the
right-hand side or for the halo exchange inside the DSS, so those two
calls are wrapped and timed here, and the run fails if a wrapper saw
fewer calls than the steps made (three of each per step).  The halo
messages and values each step sends come from the run's exchange
accounting.
"""

from __future__ import annotations

import random
from pathlib import Path
from time import perf_counter

import numpy as np
from gauge import Gauge, seam_kernel

NE = 16
NPTS = 8
NRANKS = 96
CFL = 0.4
SETUP_REPEATS = 6
#: Seconds of steps run, unmeasured, before measuring.
WARMUP_S = 2.0
#: Steps compared against the serial solver before measuring.
CHECK_STEPS = 2


def random_unit(rng: random.Random) -> np.ndarray:
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
    return v / np.linalg.norm(v)


def build_run(axis: np.ndarray):
    """Geometry, SFC partition and partitioned solver, from cold caches."""
    from repro.partition import sfc_partition
    from repro.seam import (
        PartitionedTransportRun,
        build_geometry,
        clear_dss_memo,
        clear_geometry_cache,
        solid_body_wind,
    )

    clear_geometry_cache()
    clear_dss_memo()
    geom = build_geometry(NE, NPTS)
    wind = solid_body_wind(geom.xyz, axis, 1.0)
    return PartitionedTransportRun(geom, wind, sfc_partition(NE, NRANKS))


class _Timed:
    """Wraps a callable; counts its calls and the seconds inside them."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.seconds = 0.0
        self.calls = 0

    def __call__(self, *args, **kwargs):
        t0 = perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += perf_counter() - t0
            self.calls += 1


def run(name: str, seed: int, seconds: float, trace: bool, build: Path) -> dict:
    from repro.seam import TransportSolver, cosine_bell, solid_body_wind
    from repro.telemetry import TelemetrySession, activate

    rng = random.Random(seed)
    axis = random_unit(rng)
    center = random_unit(rng)

    gauge = Gauge(seam_kernel)
    setup = []

    def time_setup() -> None:
        ref = gauge.reference()
        t0 = perf_counter()
        build_run(axis)
        setup.append((ref, perf_counter() - t0))

    for _ in range(SETUP_REPEATS // 2):
        time_setup()
    prun = build_run(axis)
    geom = prun.geom
    q0 = cosine_bell(geom.xyz, center)
    dt = prun.stable_dt(CFL)

    serial = TransportSolver(geom, solid_body_wind(geom.xyz, axis, 1.0))
    qs = serial.dss.apply(q0)
    qp = prun.pdss.apply(q0)
    for _ in range(CHECK_STEPS):
        qs = serial.step(qs, dt)
        qp = prun.step(qp, dt)
    correct = bool(np.allclose(qp, qs, rtol=0.0, atol=1e-12))

    rhs = exchange = None
    if trace:
        rhs = prun._solver.rhs = _Timed(prun._solver.rhs)
        exchange = prun.pdss._exchange_into = _Timed(prun.pdss._exchange_into)

    q = prun.pdss.apply(q0)
    mass0 = float(np.sum(q * geom.local_mass))
    acct = prun.accounting
    measure_from = perf_counter() + WARMUP_S
    while perf_counter() < measure_from:
        q = prun.step(q, dt)
    if trace:
        rhs.seconds = exchange.seconds = 0.0
        rhs.calls = exchange.calls = 0
    session = TelemetrySession(trace=True, metrics=False) if trace else None
    messages0, values0 = acct.messages, acct.values
    latencies = []
    with activate(session=session):
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            if gauge.due():
                gauge.tick(len(latencies))
            t0 = perf_counter()
            q = prun.step(q, dt)
            latencies.append(perf_counter() - t0)
    mass = float(np.sum(q * geom.local_mass))
    correct = (
        correct
        and bool(np.isfinite(q).all())
        and abs(mass - mass0) <= 1e-10 * abs(mass0)
    )
    for _ in range(SETUP_REPEATS // 2):
        time_setup()

    steps = len(latencies)
    layers = {
        "halo_messages": (acct.messages - messages0) // steps,
        "halo_values": (acct.values - values0) // steps,
    }
    if trace:
        if rhs.calls != 3 * steps or exchange.calls != 3 * steps:
            raise RuntimeError(
                f"{steps} steps made {rhs.calls} timed rhs and "
                f"{exchange.calls} timed exchange calls, not {3 * steps}: "
                "the step no longer calls the wrapped methods"
            )
        dss_us = sum(
            s["dur_us"] for s in session.tracer.export() if s["name"] == "pdss_apply"
        )
        layers.update(
            rhs_ms=1e3 * rhs.seconds / steps,
            dss_ms=1e-3 * dss_us / steps,
            dss_exchange_ms=1e3 * exchange.seconds / steps,
        )
    return {
        "latencies": latencies,
        "gauge": gauge,
        "setup": setup,
        "attempted": steps,
        "failed": 0 if correct else steps,
        "correct": correct,
        "layers": layers,
    }
