"""Partition refinement: FM bisection passes and greedy K-way passes.

Two refiners, matching the two halves of METIS:

* :func:`fm_refine_bisection` — Fiduccia-Mattheyses with per-pass
  rollback, used during uncoarsening of every bisection (RB method);
* :func:`greedy_kway_refine` — Karypis & Kumar's greedy K-way
  refinement: sweep boundary vertices, move each to the neighboring
  part with the best gain subject to a balance constraint.  The *gain
  objective* is pluggable: ``"cut"`` (Δ edge-weight cut, the KWAY
  objective) or ``"volume"`` (Δ total communication volume, the TV
  objective).  The paper observed that METIS's TV variant does not
  always deliver the smallest TCV; keeping both objectives in one code
  path lets the Table-2 bench probe exactly that.
"""

from __future__ import annotations

import numpy as np

from .._native import LIB as _NATIVE
from .._native import MAX_BOUND, check
from ..graphs.csr import CSRGraph
from .rng import Streams

__all__ = ["fm_refine_bisection", "greedy_kway_refine", "balance_constraint"]


def balance_constraint(
    total_weight: int, nparts: int, ubfactor: float
) -> int:
    """Maximum part weight allowed under an imbalance factor.

    METIS semantics: a part may weigh up to ``ubfactor`` times the
    ideal average, and — because vertices are atomic — never less than
    ``ceil(total / nparts)`` (otherwise no legal partition exists when
    weights don't divide evenly).
    """
    ideal = total_weight / nparts
    # Ceil semantics: with atomic vertices a tolerance of x% can only
    # be realized by rounding up, which is also what lets kmetis trade
    # one extra element of imbalance for cut at O(1) elements/processor
    # (the regime the paper studies).
    return max(int(np.ceil(ubfactor * ideal - 1e-9)), int(np.ceil(ideal - 1e-9)))


#: Default pass limit of :func:`fm_refine_bisection`.
FM_PASSES = 8


def fm_refine_bisection(
    graph: CSRGraph,
    side: np.ndarray,
    max_left_weight: int,
    max_right_weight: int,
    max_passes: int = FM_PASSES,
) -> np.ndarray:
    """Fiduccia-Mattheyses refinement of a bisection.

    Runs passes of single-vertex moves: each pass tentatively moves
    every vertex at most once in best-gain-first order (allowing
    negative-gain hill climbing), then rolls back to the best prefix.
    Stops when a pass yields no improvement.

    Args:
        graph: The graph.
        side: ``(n,)`` initial sides (0/1); not modified.
        max_left_weight: Weight cap for side 0.
        max_right_weight: Weight cap for side 1.
        max_passes: Upper bound on passes (convergence usually takes
            2-4).

    Returns:
        The refined side array.
    """
    n = graph.nvertices
    side_arr = np.array(side, dtype=np.int64)
    if side_arr.shape != (n,):
        raise ValueError(f"side must have shape ({n},), got {side_arr.shape}")
    check(_NATIVE.rb_refine(
        n, *graph.addresses(), side_arr.ctypes.data, max_left_weight,
        max_right_weight, max_passes, MAX_BOUND,
    ))
    return side_arr


def greedy_kway_refine(
    graph: CSRGraph,
    assignment: np.ndarray,
    nparts: int,
    ubfactor: float = 1.03,
    objective: str = "cut",
    max_passes: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """Greedy K-way refinement (METIS KWAY / TV uncoarsening step).

    Sweeps boundary vertices in random order; a vertex moves to the
    adjacent part with the largest positive gain whose weight cap
    allows it.  Zero-gain moves are taken only when they improve
    balance (move from the heaviest overfull part), which is METIS's
    escape hatch for projected imbalance.

    The ``"volume"`` gain is METIS's TotalVol *model*: a vertex's
    volume is the number of distinct external parts among its
    neighbors.  The measured TCV of :mod:`repro.partition.metrics`
    weighs every cut interface by its shared boundary points, so
    minimizing this model can fail to minimize measured TCV — the
    anomaly the paper reports for METIS's TV partitions.

    Args:
        graph: The graph.
        assignment: ``(n,)`` initial part ids; not modified.
        nparts: Part count.
        ubfactor: Balance constraint (1.03 = METIS default 3%).
        objective: ``"cut"`` or ``"volume"``.
        max_passes: Pass limit.
        seed: Sweep-order seed.

    Returns:
        Refined assignment array.
    """
    if objective not in ("cut", "volume"):
        raise ValueError(f"unknown objective {objective!r}")
    n = graph.nvertices
    assign = np.array(assignment, dtype=np.int64)
    if assign.shape != (n,):
        raise ValueError(f"assignment must have shape ({n},), got {assign.shape}")
    total = graph.total_vweight()
    cap = balance_constraint(total, nparts, ubfactor)
    ideal_cap = int(np.ceil(total / nparts - 1e-9))
    # One slot per part id present (bincount grows past nparts if the
    # input holds a larger id); the C kernel sizes its scratch by it.
    pweights = np.bincount(
        assign, weights=graph.vweights, minlength=nparts
    ).astype(np.int64)
    volume = objective == "volume"
    rng = Streams([seed])
    csr = graph.addresses()
    assign_p, pweights_p = assign.ctypes.data, pweights.ctypes.data
    # Each pass draws its visit order here; the kernel sweeps it and
    # reports how many moves it accepted.  A pass without moves ends
    # the loop.
    for _ in range(max_passes):
        perm = rng.permutations([n])
        moved = check(_NATIVE.kway_refine(
            n, *csr, perm.ctypes.data, assign_p, pweights_p,
            len(pweights), cap, ideal_cap, volume,
        ))
        if moved == 0:
            break
    return assign
