"""Space-filling-curve partitioning (the paper's contribution).

"The space-filling curve is then subdivided into equal sized segments
to achieve the partitioning" (paper Sec. 3).  With uniform element
weights and ``Nproc`` dividing ``K`` this produces *perfectly balanced*
partitions — ``LB(nelemd) = 0`` — which is exactly the property that
lets SFC partitions beat METIS at ``O(1)`` elements per processor.

Two cutting rules are provided:

* :func:`cut_positions_uniform` — equal-count segments (ties broken by
  giving earlier segments the extra element), the paper's rule;
* :func:`cut_positions_weighted` — weighted elements, the SFC
  generalization used by adaptive codes (Pilkington & Baden): the
  exact 1-D chains-on-chains cut, whose maximum segment load is the
  smallest any cut of the curve can reach, found by probe bisection
  over the weight prefix sums (Nicol; Pinar & Aykanat).  Under uniform
  weights the rule short-circuits to :func:`cut_positions_uniform`
  exactly.

One cutting *path* applies the rules: :func:`keyed_cut` /
:func:`sfc_partition`, the scalable path per Borrell et al.: stream
element ids in chunks, map each chunk straight to uint64 curve keys
(:func:`repro.cubesphere.curve.element_keys`), and bucket the keys
against the prefix-sum cut bounds.  Peak memory is O(chunk) beyond the
assignment itself.  The keys are the only definition of the curve: a
materialized :class:`~repro.cubesphere.curve.CubedSphereCurve` is their
inverse.  The paper's construction, cutting a forward-built O(K)
curve, lives on only as the golden oracle ``partition_curve`` in
``tests/partition/reference_sfc.py``, and the keyed cut is
bit-identical to it.

The curve never changes between cuts, only the cut points do, so
:func:`curve_key_fn` keys each ``(ne, schedule)`` once per process:
a mesh that fits in one chunk (``6 ne^2 <= DEFAULT_CHUNK``) keeps its
whole read-only position array in a small LRU, and every later cut
indexes it.  Larger meshes are keyed afresh per chunk, as before.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable

import numpy as np

from ..cubesphere.curve import element_keys
from ..memo import StageCache
from ..sfc.factorization import default_schedule, factorize_2_3
from ..sfc.keys import morton_keys
from ..telemetry import span
from .base import Partition
from .registry import validate_weights

__all__ = [
    "DEFAULT_CHUNK",
    "POSITIONS_CACHE",
    "curve_key_fn",
    "cut_positions_uniform",
    "cut_positions_weighted",
    "keyed_cut",
    "morton_partition",
    "sfc_partition",
]

#: Elements keyed per chunk on the streaming cut path (~24 MB of
#: transient arrays per chunk at int64/uint64 widths).
DEFAULT_CHUNK = 1 << 20

#: Curve-position arrays of this process, one per ``(ne, schedule)``,
#: each at most ``DEFAULT_CHUNK`` uint64s (8 MiB).
POSITIONS_CACHE = StageCache("positions", maxsize=4)


def _all_positions(ne: int, schedule: str) -> np.ndarray:
    positions = element_keys(ne, schedule)
    positions.setflags(write=False)
    return positions


def curve_key_fn(
    ne: int, schedule: str | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Key function of the cubed-sphere curve at ``ne`` for :func:`keyed_cut`.

    Maps element ids to their uint64 curve positions, exactly as
    :func:`repro.cubesphere.curve.element_keys` does.  When the whole
    mesh fits in one keying chunk (``6 ne^2 <= DEFAULT_CHUNK``) the
    positions of every element are computed once per process and kept
    read-only in a small LRU (:data:`POSITIONS_CACHE`); past that, ids
    are keyed afresh per chunk, so the streaming path keeps its O(chunk)
    peak memory.  ``schedule=None`` is the default schedule, and shares
    its cache entry.
    """
    if schedule is None:
        schedule = default_schedule(ne)
    if 6 * ne * ne > DEFAULT_CHUNK:
        return lambda ids: element_keys(ne, schedule, gids=ids)
    positions = POSITIONS_CACHE.get_or_compute(
        (ne, schedule), lambda: _all_positions(ne, schedule)
    )
    return positions.__getitem__


def cut_positions_uniform(ncells: int, nparts: int) -> np.ndarray:
    """Segment boundaries for equal-count cutting.

    Returns:
        ``(nparts + 1,)`` int array ``b`` with segment ``p`` covering
        curve positions ``[b[p], b[p + 1])``; segment sizes differ by
        at most one, larger segments first.
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    if nparts > ncells:
        raise ValueError(f"more parts ({nparts}) than cells ({ncells})")
    base, extra = divmod(ncells, nparts)
    sizes = np.full(nparts, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(nparts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def cut_positions_weighted(weights: np.ndarray, nparts: int) -> np.ndarray:
    """Segment boundaries with the smallest possible maximum segment load.

    Solves the 1-D chains-on-chains problem exactly by probe bisection
    (Nicol 1994; Pinar & Aykanat, JPDC 2004).  A probe at bound ``B``
    cuts greedily, each segment as long as ``B`` allows; it passes when
    ``nparts`` segments reach the end.  A passing probe lowers the upper
    end of the search to its realized maximum load; a failing one raises
    the lower end to the smallest load that would have let one of its
    segments take one more element, because every bound below that
    fails the same way.  Both ends are therefore prefix-sum differences,
    and the search stops on the optimum ``B*`` itself, with no float
    tolerance.  A segment's load is always ``pre[j] - pre[s]`` on one
    prefix-sum array, the same subtraction the probes compare.

    Many cuts reach ``B*``; the one returned keeps each boundary as
    close as ``B*`` allows to its proportional target, the element
    where the running weight crosses ``p * total / nparts``.  Left to
    right, cut ``p`` is clamped into the window of positions that keep
    a cut at ``B*`` possible: after ``p - 1`` and within one ``B*``
    segment of it (the greedy probe), and no earlier than the greedy
    probe run backwards from the end allows, with every segment
    non-empty.  So a small change in the weights moves few boundaries,
    and the boundaries never pack up at the front of the curve.
    Uniform weights reduce *exactly* to
    :func:`cut_positions_uniform` (equal counts, larger segments first),
    so weighted and unweighted requests with trivial weights produce
    identical partitions.

    Args:
        weights: Positive, finite weight of each cell *in curve order*.
        nparts: Number of segments (``1 <= nparts <= len(weights)``).
    """
    return _cut_weighted(validate_weights(weights), nparts)


def _cut_weighted(weights: np.ndarray, nparts: int) -> np.ndarray:
    """:func:`cut_positions_weighted` of already validated weights."""
    ncells = len(weights)
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    if nparts > ncells:
        raise ValueError(f"more parts ({nparts}) than cells ({ncells})")
    if (weights == weights[0]).all():
        return cut_positions_uniform(ncells, nparts)
    prefix = np.zeros(ncells + 1)
    np.cumsum(weights, out=prefix[1:])
    pre = memoryview(prefix)  # Python floats, without an O(K) list

    def segment_end(start: int, bound: float) -> int:
        """Last ``j`` with ``pre[j] - pre[start] <= bound``."""
        base = pre[start]
        end = bisect_right(pre, base + bound, start + 1) - 1
        while end < ncells and pre[end + 1] - base <= bound:
            end += 1
        while pre[end] - base > bound:
            end -= 1
        return end

    def segment_start(end: int, bound: float) -> int:
        """First ``s`` with ``pre[end] - pre[s] <= bound``."""
        top = pre[end]
        start = bisect_left(pre, top - bound, 0, end)
        while start > 0 and top - pre[start - 1] <= bound:
            start -= 1
        while top - pre[start] > bound:
            start += 1
        return start

    def probe(bound: float) -> tuple[bool, float]:
        """Greedy cut at ``bound``: (fits, realized max or next load)."""
        start, top, grow = 0, 0.0, np.inf
        for _ in range(nparts):
            end = segment_end(start, bound)
            load = pre[end] - pre[start]
            if load > top:
                top = load
            if end == ncells:
                return True, top
            load = pre[end + 1] - pre[start]
            if load < grow:
                grow = load
            start = end
        return False, grow

    # B* lies in [lo, hi].  Where to probe only sets the probe count:
    # start at the ideal load, and since B* is at most about ideal +
    # heaviest, never probe more than one element above it.  (Below
    # the heaviest element a probe segment may stay empty; it fails.)
    lo, hi = 0.0, pre[ncells]
    ideal, heaviest = hi / nparts, float(weights.max())
    bound = max(ideal, heaviest)
    while lo < hi:
        fits, load = probe(bound)
        if fits:
            hi = load
        else:
            lo = load
        bound = min(lo + 0.5 * (hi - lo), max(lo, ideal) + heaviest)
        if bound >= hi:  # lo and hi are adjacent floats
            bound = lo
    # B* is at least every single element's load, so each segment at
    # B* takes at least one element, from either end.
    targets = [0] + np.searchsorted(
        prefix, pre[ncells] * np.arange(1, nparts) / nparts
    ).tolist()
    earliest = [0] * (nparts + 1)
    earliest[nparts] = ncells
    for p in range(nparts - 1, 0, -1):
        earliest[p] = segment_start(earliest[p + 1], hi)
    bounds = [0] * (nparts + 1)
    bounds[nparts] = ncells
    for p in range(1, nparts):
        prev = bounds[p - 1]
        first = max(earliest[p], prev + 1)
        last = min(segment_end(prev, hi), ncells - (nparts - p))
        bounds[p] = min(max(targets[p], first), last)
    return np.array(bounds, dtype=np.int64)


def keyed_cut(
    key_fn: Callable[[np.ndarray], np.ndarray],
    ncells: int,
    nparts: int,
    weights: np.ndarray | None = None,
    method: str = "sfc",
) -> Partition:
    """Cut a curve by streaming its keys — never materializing it.

    The keys of ``[0, ncells)`` must be a bijection onto ``[0, ncells)``
    (each element's position along the traversal).  Elements are keyed
    in chunks of :data:`DEFAULT_CHUNK` and bucketed against the cut
    bounds with a binary search (a single chunk looks each key's owner
    up directly), so peak memory is O(chunk) beyond the assignment
    array itself — the chunked keying + prefix-sum cutting pass of
    Borrell et al.

    Args:
        key_fn: Maps an array of element ids to their uint64 keys.
        ncells: Total element count.
        nparts: Number of segments.
        weights: Optional per-element (id-indexed) weights; cuts then
            balance weight instead of element count (the keying pass
            also scatters the weights into key order).  Checked with
            :func:`~repro.partition.registry.validate_weights`, in id
            order, so that a bad entry is named by its element id.
        method: Label stamped on the produced partition.

    Returns:
        The :class:`Partition`; bit-identical to cutting the
        materialized traversal with the same rule.
    """
    if weights is not None:
        weights = validate_weights(weights, ncells)
    return _keyed_cut(key_fn, ncells, nparts, weights, method)


def _keyed_cut(
    key_fn: Callable[[np.ndarray], np.ndarray],
    ncells: int,
    nparts: int,
    weights: np.ndarray | None,
    method: str,
) -> Partition:
    """:func:`keyed_cut` of already validated weights.

    The registry's builders cut through here: their
    :class:`~repro.partition.registry.PartitionProblem` has checked the
    weights once already.
    """
    chunk = DEFAULT_CHUNK
    with span("keyed_cut", "sfc", ncells=ncells, nparts=nparts, method=method):
        if weights is not None:
            along_curve = np.empty(ncells, dtype=np.float64)
        # One keying pass: the keys wait in the assignment buffer (while
        # any weights are scattered into curve order) until the cut
        # bounds are known, then are bucketed in place.
        assignment = np.empty(ncells, dtype=np.int64)
        for lo in range(0, ncells, chunk):
            ids = np.arange(lo, min(lo + chunk, ncells), dtype=np.int64)
            keys = assignment[lo : lo + len(ids)]
            keys[:] = key_fn(ids)
            if weights is not None:
                along_curve[keys] = weights[lo : lo + len(ids)]
        if weights is None:
            bounds = cut_positions_uniform(ncells, nparts)
        else:
            bounds = _cut_weighted(along_curve, nparts)
        if ncells <= chunk:
            # One chunk holds every key anyway, so an owner per curve
            # position adds no peak memory, and a gather is about four
            # times faster than the binary search.
            owner = np.repeat(np.arange(nparts, dtype=np.int64), np.diff(bounds))
            assignment[:] = owner[assignment]
        else:
            for lo in range(0, ncells, chunk):
                keys = assignment[lo : lo + chunk]
                keys[:] = np.searchsorted(bounds, keys, side="right") - 1
        return Partition(assignment, nparts=nparts, method=method)


def sfc_partition(
    ne: int,
    nparts: int,
    schedule: str | None = None,
    weights: np.ndarray | None = None,
) -> Partition:
    """Convenience wrapper: SFC-partition the cubed-sphere at ``ne``.

    Uses the streaming key path (:func:`keyed_cut`): the global curve
    is never materialized, so resolutions far beyond the paper's
    (Ne >= 1024, K in the millions) partition in O(chunk) peak memory;
    meshes within one chunk reuse their cached positions
    (:func:`curve_key_fn`).  Bit-identical to cutting the materialized
    curve (``tests/partition/reference_sfc.py``).

    Args:
        ne: Elements per cube-face edge (must be ``2^n * 3^m``).
        nparts: Number of processors.
        schedule: Optional face-local refinement schedule (for the
            refinement-order ablation).
        weights: Optional per-element weights.
    """
    factorize_2_3(ne)  # surface inadmissible sizes before any work
    return keyed_cut(
        curve_key_fn(ne, schedule), 6 * ne * ne, nparts, weights=weights
    )


def _morton_key_fn(ne: int) -> Callable[[np.ndarray], np.ndarray]:
    """Key function of the per-face Morton traversal at ``ne`` (``2^n``)."""
    if ne < 1 or ne & (ne - 1):
        raise ValueError(
            f"morton partitioning needs ne = 2^n (bit interleave), got {ne}"
        )
    n2 = ne * ne

    def key_fn(ids: np.ndarray) -> np.ndarray:
        face, rem = np.divmod(ids, n2)
        iy, ix = np.divmod(rem, ne)
        keys = morton_keys(ix, iy, ne, check=False)
        keys += face.astype(np.uint64) * np.uint64(n2)
        return keys

    return key_fn


def morton_partition(
    ne: int,
    nparts: int,
    weights: np.ndarray | None = None,
) -> Partition:
    """Partition by cutting the per-face Morton (Z-order) traversal.

    Faces are visited in storage order with the identity orientation —
    Morton's "Z" jumps make it *discontinuous*, so no face chaining can
    produce a single continuous curve (the curve-baselines ablation
    demonstrates this), and segments may straddle distant blocks.
    Registered as the ``morton`` method for exactly that comparison.

    Args:
        ne: Elements per cube-face edge; must be a power of two.
        nparts: Number of processors.
        weights: Optional per-element weights.
    """
    return keyed_cut(
        _morton_key_fn(ne), 6 * ne * ne, nparts, weights=weights, method="morton"
    )
