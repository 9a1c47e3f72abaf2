"""Multilevel bisection and the recursive-bisection (RB) partitioner.

RB is METIS's ``pmetis`` algorithm: recursively split the graph in two,
each split solved by the full multilevel machinery (coarsen with HEM,
bisect the coarsest graph with greedy graph growing, uncoarsen with FM
refinement at every level).  The paper: "the recursive bisection (RB)
algorithm is best for load balancing, but results in larger edgecuts
and total communication volume" — the tight per-split balance is what
produces that behaviour, and it is enforced here with a per-bisection
imbalance cap that defaults to (essentially) exact.

The driver is compiled: one call of ``rb_partition`` (``_kernels.c``)
runs the whole recursion, its stages, its split and its random
streams, and ``rb_bisect`` runs one multilevel bisection through the
same level function.  This module checks the arguments, passes the
seed and the tuning constants, and turns the kernel's own per-depth
timings into telemetry spans.
"""

from __future__ import annotations

import math
from time import time_ns

import numpy as np

from .._native import LIB as _NATIVE
from .._native import MAX_BOUND, check
from ..graphs.csr import CSRGraph
from ..partition.base import Partition
from ..telemetry import record_span, telemetry_active
from .coarsen import MAX_LEVELS
from .initial import NTRIALS
from .refine import FM_PASSES
from .rng import seed_words

__all__ = ["multilevel_bisection", "recursive_bisection"]

#: Coarsening stops once the graph is this small; GGGP handles the rest.
COARSEST_NVERTICES = 64


def multilevel_bisection(
    graph: CSRGraph,
    target_left: int,
    ubfactor: float = 1.001,
    seed: int = 0,
) -> np.ndarray:
    """Bisect a graph with the full multilevel pipeline.

    Coarsen with HEM, grow an initial bisection of the coarsest graph
    (GGGP), then refine with FM at every level on the way back up: one
    level of the compiled recursive-bisection driver with one group
    (``rb_bisect``).

    Args:
        graph: Graph to split.
        target_left: Desired total vertex weight of side 0.
        ubfactor: Per-side imbalance cap (default: essentially exact,
            METIS RB behaviour).
        seed: Determinism seed.

    Returns:
        ``(n,)`` int array of sides (0/1).

    Raises:
        ValueError: ``ubfactor`` is not finite, ``seed`` is negative,
            or ``target_left`` is not strictly between 0 and the
            graph's weight.
    """
    side = np.empty(graph.nvertices, dtype=np.int64)
    _run(_NATIVE.rb_bisect, graph, target_left, ubfactor, seed, side)
    return side


def recursive_bisection(
    graph: CSRGraph,
    nparts: int,
    ubfactor: float = 1.001,
    seed: int = 0,
) -> Partition:
    """METIS-style recursive bisection into ``nparts`` parts.

    Part counts need not be powers of two: each split divides the
    target weight proportionally to the part counts of the two halves
    (``pmetis`` semantics).  A split whose side receives fewer vertices
    than the parts it must host (possible when the imbalance slack
    exceeds the region size) becomes an exact order-based split, since
    pmetis never returns empty parts.

    One call of the compiled ``rb_partition`` kernel runs the whole
    recursion, level-synchronously.  Every bisection depends only on
    its vertex set, its part range and its seed ``seed + depth * 7919
    + first``, never on the order a depth-first loop would visit it,
    so each recursion depth extracts all of its bisections' ("groups'")
    subgraphs at once, then coarsens, grows, refines and uncoarsens
    each group, and splits them.  Every random stream still draws what
    the depth-first loop's NumPy ``default_rng`` calls draw, so the
    parts are those of the oracle in
    ``tests/metis/reference_kernels.py``.

    Returns:
        A :class:`Partition` labeled ``"rb"``.

    Raises:
        ValueError: ``nparts`` is outside ``[1, n]``, ``ubfactor`` is
            not finite, ``seed`` is negative, a split's weight target is
            not strictly between 0 and its region's weight, or the
            vertex weights are too large for exact float split targets.
    """
    n = graph.nvertices
    if not 1 <= nparts <= n:
        raise ValueError("need 1 <= nparts <= nvertices")
    assignment = np.zeros(n, dtype=np.int64)
    if nparts > 1:
        _run(_NATIVE.rb_partition, graph, nparts, ubfactor, seed, assignment)
    return Partition(assignment, nparts=nparts, method="rb")


#: The driver's tuning constants, in the order ``_kernels.c`` reads them.
_PARAMS = np.array(
    [COARSEST_NVERTICES, MAX_LEVELS, NTRIALS, FM_PASSES, MAX_BOUND], dtype=np.int64
)
_PARAMS_P = _PARAMS.ctypes.data

#: A recursion depth's stages, in the order of the timing table's columns.
_STAGES = ("subgraph", "coarsen", "initial", "refine", "uncoarsen")

#: Rows of the timing table: every depth halves the part count, so a
#: count below 2^63 takes at most 63 depths.
_DEPTHS = 64


def _run(
    kernel, graph: CSRGraph, arg: int, ubfactor: float, seed: int, out: np.ndarray
) -> None:
    """Call ``rb_partition`` or ``rb_bisect`` (``arg``: the part count or
    the side-0 target) into ``out``, then record one span per stage of
    each depth from the kernel's timing table while telemetry runs.

    Raises:
        ValueError: ``ubfactor`` is not finite, ``seed`` is negative, or
            the kernel's error code (see :func:`repro._native.check`).
    """
    if not math.isfinite(ubfactor):
        raise ValueError(f"ubfactor must be finite, got {ubfactor}")
    words, _ = seed_words([seed])
    timing = None
    if telemetry_active():
        timing = np.zeros((_DEPTHS, 2 + len(_STAGES)), dtype=np.int64)
    start = time_ns()
    depths = check(kernel(
        graph.nvertices, *graph.addresses(), arg, words.ctypes.data, len(words),
        ubfactor, _PARAMS_P, out.ctypes.data,
        None if timing is None else timing.ctypes.data,
    ))
    if timing is not None:
        for groups, at, *durations in timing[:depths].tolist():
            ts = start + at
            for name, dur in zip(_STAGES, durations):
                record_span(name, "metis", ts, dur, groups=groups)
                ts += dur
