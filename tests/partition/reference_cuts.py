"""Reference weighted cuts: the library's earlier heuristic and two oracles.

:func:`greedy_cut` and :func:`refine_cut_positions` are the weighted
SFC cut the library shipped before it became exact: prefix-sum targets
at multiples of ``total / nparts`` with two non-empty fix-up loops,
then the iterative correction pass of Borrell et al.  They stay here as
the reference for the "never worse than before" properties of
:func:`repro.partition.sfc.cut_positions_weighted`.

:func:`greedy_fits` (with :func:`is_optimal` and
:func:`optimal_max_load` built on it) and :func:`dp_optimum` check its
optimality independently of its bisection: a feasibility probe that
walks the prefix sums element by element, and the O(P K^2) dynamic
program.
Every load is ``pre[j] - pre[s]`` on :func:`prefix_sums`, the same
subtraction the library measures with, so comparisons are exact.
"""

from __future__ import annotations

import numpy as np

from repro.partition.sfc import cut_positions_uniform


def prefix_sums(weights: np.ndarray) -> np.ndarray:
    """``pre`` with ``pre[0] = 0`` and ``pre[j] = w[0] + ... + w[j-1]``."""
    pre = np.zeros(len(weights) + 1)
    np.cumsum(np.asarray(weights, dtype=np.float64), out=pre[1:])
    return pre


def segment_loads(weights: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Load of every segment ``[bounds[p], bounds[p+1])``."""
    pre = prefix_sums(weights)
    return pre[bounds[1:]] - pre[bounds[:-1]]


def greedy_cut(weights: np.ndarray, nparts: int) -> np.ndarray:
    """The earlier greedy cut: prefix-sum targets plus non-empty fix-ups.

    Constant weights took the equal-count cut, as they still do.
    """
    weights = np.asarray(weights, dtype=np.float64)
    ncells = len(weights)
    if (weights == weights[0]).all():
        return cut_positions_uniform(ncells, nparts)
    prefix = np.cumsum(weights)
    targets = prefix[-1] * np.arange(1, nparts) / nparts
    cuts = np.searchsorted(prefix - 0.5 * weights, targets, side="left")
    bounds = np.concatenate([[0], cuts, [ncells]]).astype(np.int64)
    for p in range(1, nparts):
        if bounds[p] <= bounds[p - 1]:
            bounds[p] = bounds[p - 1] + 1
    for p in range(nparts - 1, 0, -1):
        if bounds[p] >= bounds[p + 1]:
            bounds[p] = bounds[p + 1] - 1
    return bounds


def refine_cut_positions(
    weights: np.ndarray,
    bounds: np.ndarray,
    max_sweeps: int | None = None,
) -> np.ndarray:
    """The earlier correction pass over segment boundaries (Borrell et al.).

    Shifts one element at a time across a boundary whenever that
    strictly reduces the larger of the two adjacent segment loads (and
    keeps both segments non-empty), sweeping to a fixpoint or for at
    most ``max_sweeps`` sweeps.  Returns a new bounds array.
    """
    bounds = np.array(bounds, dtype=np.int64)
    nparts = len(bounds) - 1
    prefix = prefix_sums(weights)

    def pair_max(p: int, b: int) -> float:
        """Larger load of segments p-1 and p, were bound p at ``b``."""
        return max(prefix[b] - prefix[bounds[p - 1]], prefix[bounds[p + 1]] - prefix[b])

    sweeps = 0
    moved = True
    while moved and (max_sweeps is None or sweeps < max_sweeps):
        moved = False
        sweeps += 1
        for p in range(1, nparts):
            while True:
                b = bounds[p]
                worse = pair_max(p, b)
                # Judged by the loads after the shift, not ``left - w``:
                # rounding can make two opposite shifts each look like a
                # gain.
                if b - bounds[p - 1] >= 2 and pair_max(p, b - 1) < worse:
                    bounds[p] = b - 1
                elif bounds[p + 1] - b >= 2 and pair_max(p, b + 1) < worse:
                    bounds[p] = b + 1
                else:
                    break
                moved = True
    return bounds


def previous_cut(weights: np.ndarray, nparts: int) -> np.ndarray:
    """The earlier shipped weighted cut: greedy, then the correction pass
    (which constant weights skipped)."""
    weights = np.asarray(weights, dtype=np.float64)
    bounds = greedy_cut(weights, nparts)
    if (weights == weights[0]).all():
        return bounds
    return refine_cut_positions(weights, bounds)


def greedy_fits(pre: np.ndarray, nparts: int, bound: float) -> bool:
    """Can ``nparts`` segments, each of load ``<= bound``, cover the curve?

    Walks the prefix sums one element at a time: each segment takes
    elements while its load stays within ``bound``.
    """
    pre = pre.tolist()
    ncells = len(pre) - 1
    start = 0
    for _ in range(nparts):
        end = start
        while end < ncells and pre[end + 1] - pre[start] <= bound:
            end += 1
        if end == start:
            return False
        if end == ncells:
            return True
        start = end
    return False


def is_optimal(weights: np.ndarray, bounds: np.ndarray) -> bool:
    """Certificate: no cut into as many segments has a smaller max load.

    ``bounds`` is optimal when the greedy probe just below its maximum
    load, at ``np.nextafter(maxload, 0)``, fails.
    """
    pre = prefix_sums(weights)
    maxload = (pre[bounds[1:]] - pre[bounds[:-1]]).max()
    return not greedy_fits(pre, len(bounds) - 1, np.nextafter(maxload, 0))


def dp_optimum(weights: np.ndarray, nparts: int) -> float:
    """The smallest maximum load over all cuts, by O(P K^2) dynamic program."""
    pre = prefix_sums(weights).tolist()
    ncells = len(pre) - 1
    # best[j]: optimal max load of cutting the first j cells into p parts.
    best = [np.inf] * (ncells + 1)
    for j in range(1, ncells + 1):
        best[j] = pre[j] - pre[0]
    for p in range(2, nparts + 1):
        best = [np.inf] * p + [
            min(max(best[i], pre[j] - pre[i]) for i in range(p - 1, j))
            for j in range(p, ncells + 1)
        ]
    return best[ncells]


def optimal_max_load(weights: np.ndarray, nparts: int) -> float:
    """The smallest maximum load over all cuts, by float bisection on
    :func:`greedy_fits` (feasibility is monotone in the bound, and the
    optimum is itself a float, so the bisection ends on it exactly)."""
    pre = prefix_sums(weights)
    lo, hi = 0.0, float(pre[-1])
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        if greedy_fits(pre, nparts, mid):
            hi = mid
        else:
            lo = mid
