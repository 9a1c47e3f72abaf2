"""A speed gauge: a fixed reference kernel timed between operations.

On a shared virtual machine the CPU's speed moves by up to 1.6x within
seconds, and steal time does not show it: the host's other tenants slow
the core itself (a busy sibling hardware thread, shared caches, memory
bandwidth), so process CPU time moves with wall time, and the middle
half of ten runs of the same code spread over 29% to 57% of the median
latency.  The benchmark therefore times a fixed kernel of its own, on
the same CPU, at the start of every slice of :data:`SLICE_S` seconds of
operations, and reads each slice's median latency against the kernel
time of that slice.  A run's figure is the median over its slices of
that ratio, times the kernel's time on an idle core: the latency the
operations would have at the reference speed.

Each workload has a kernel that does the kind of work its operations
do, since not all work slows alike: a busy loop on the other vCPU
slowed :func:`served_kernel` by 40% while the SEAM steps barely moved.

* :func:`served_kernel` — interpreted dict and list work and a JSON
  round trip of an assignment-sized body, as a server's request path;
* :func:`seam_kernel` — spectral-element array passes on the K=1536,
  np=8 grid: small dense matrix products, a weighted scatter-add onto
  shared points and the gather back, and a loop over 96 ranks.

Kernel inputs are fixed, so every call does the same work.
"""

from __future__ import annotations

import gc
import json
import statistics
from collections.abc import Callable
from time import perf_counter

import numpy as np

#: Seconds of operations between two gauge readings.
SLICE_S = 0.25

_BODY = {
    "assignment": [(7 * i) % 96 for i in range(6144)],
    "parts": [
        {"rank": r, "elements": 64, "neighbours": [r - 1, r + 1]} for r in range(96)
    ],
}
_ARRAY = np.sin(np.arange(65536, dtype=np.float64))

_NELEM, _NP, _NRANKS = 1536, 8, 96
_GRID = np.random.default_rng(0)
_DIFF = _GRID.standard_normal((_NP, _NP))
_FIELD = _GRID.standard_normal((_NELEM, _NP, _NP))
_MASS = _GRID.random((_NELEM, _NP, _NP))
_POINTS = _GRID.integers(0, _NELEM * (_NP - 1) ** 2, _NELEM * _NP * _NP)
del _GRID


def served_kernel() -> int:
    counts: dict[int, int] = {}
    for _ in range(2):
        for gid in _BODY["assignment"]:
            counts[gid] = counts.get(gid, 0) + 1
        body = json.loads(json.dumps(_BODY))
    a = np.sort(_ARRAY)
    for _ in range(8):
        a = np.cumsum(a * 0.5 - a.mean())
    return len(counts) + len(body["assignment"]) + int(a.size)


def seam_kernel() -> int:
    q = _FIELD
    for _ in range(3):
        dq = _DIFF @ q + q @ _DIFF.T
        summed = np.bincount(_POINTS, weights=(_MASS * dq).ravel())
        q = summed[_POINTS].reshape(q.shape) * 1e-3
        per_rank = [float(q[r::_NRANKS].sum()) for r in range(_NRANKS)]
    return len(per_rank)


#: Median seconds of each kernel on an idle core of a 2-vCPU x86-64
#: virtual machine (CPython 3.11, NumPy 1.26): the reference speed.
NOMINAL_S = {served_kernel: 0.0071, seam_kernel: 0.0047}


class Gauge:
    """Kernel readings, each opening a slice of recorded operations.

    A slice is the operations recorded from one reading to the next;
    :meth:`tick` takes the count recorded so far, so the latencies
    themselves can live in one flat list.
    """

    def __init__(self, kernel: Callable[[], int]) -> None:
        self.kernel = kernel
        self.refs: list[float] = []
        self.starts: list[int] = []
        self._next = 0.0

    def reference(self) -> float:
        """Seconds one call of the kernel takes now.

        The garbage collector is off meanwhile: a collection the
        kernel's allocations trigger costs what the calling process
        holds, not what the kernel does.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self.kernel()
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def tick(self, recorded: int) -> None:
        """Take a reading that opens a slice at operation ``recorded``."""
        self.refs.append(self.reference())
        self.starts.append(recorded)
        self._next = perf_counter() + SLICE_S

    def due(self) -> bool:
        """Whether the current slice has run its :data:`SLICE_S`."""
        return perf_counter() >= self._next

    def slices(self, latencies: list[float]) -> list[tuple[float, float]]:
        """``(reading, median latency)`` of every slice with operations."""
        bounds = self.starts[1:] + [len(latencies)]
        return [
            (ref, statistics.median(latencies[lo:hi]))
            for ref, lo, hi in zip(self.refs, self.starts, bounds)
            if hi > lo
        ]

    def at_reference_speed(self, pairs: list[tuple[float, float]]) -> float:
        """Median of ``seconds / reading`` over ``(reading, seconds)``
        pairs, times the kernel's time at the reference speed."""
        ratio = statistics.median(s / r for r, s in pairs)
        return NOMINAL_S[self.kernel] * ratio

