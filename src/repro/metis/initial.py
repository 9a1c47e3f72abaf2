"""Initial bisections for the coarsest graph of the multilevel scheme.

Two methods, mirroring METIS's pmetis options:

* *greedy graph growing* (GGGP): grow one side from a pseudo-peripheral
  seed, always absorbing the frontier vertex whose absorption decreases
  the prospective cut the most, until the side reaches its weight
  target; several trials with different seeds keep the best cut;
* *spectral*: split the Fiedler-vector order at the weight target —
  slower but occasionally better on globally "twisted" graphs.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from .._native import LIB as _NATIVE
from .._native import MAX_BOUND as _MAX_BOUND
from ..graphs.csr import CSRGraph
from ..graphs.laplacian import spectral_bisection_order
from ..graphs.traversal import pseudo_peripheral_vertex

__all__ = ["greedy_graph_growing", "spectral_initial_bisection"]


def _split_from_order(
    graph: CSRGraph, order: np.ndarray, target_left: int
) -> np.ndarray:
    """Prefix of ``order`` whose weight best matches ``target_left``."""
    w = graph.vweights[order]
    prefix = np.cumsum(w)
    k = int(np.argmin(np.abs(prefix - target_left)))
    side = np.ones(graph.nvertices, dtype=np.int64)
    side[order[: k + 1]] = 0
    return side


#: Default number of GGGP growth trials.
NTRIALS = 4


def greedy_graph_growing(
    graph: CSRGraph, target_left: int, seed: int = 0, ntrials: int = NTRIALS
) -> np.ndarray:
    """GGGP bisection.

    Args:
        graph: Graph to bisect (need not be connected; leftover
            components are swept into the growing side by weight).
        target_left: Desired total vertex weight of side 0.
        seed: Base seed; each trial perturbs it.
        ntrials: Number of independent growths; best cut wins.

    Returns:
        ``(n,)`` int array of sides (0 or 1).
    """
    n = graph.nvertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # The RNG only feeds the trial-1.. start vertices; a single batched
    # draw yields the same values as the historical per-trial scalar
    # draws (verified bit-identical under fixed seeds).
    starts_arr = np.random.default_rng(seed).integers(n, size=ntrials - 1)
    if _NATIVE is not None:
        # One row of the batched kernel (gain bound checked in C).
        starts_np = np.empty(ntrials, dtype=np.int64)
        starts_np[0] = -1  # trial 0: pseudo-peripheral seed
        starts_np[1:] = starts_arr
        out = np.empty(n, dtype=np.int64)
        row = np.array(
            [[n, *graph.addresses(), out.ctypes.data, 0, 0, 0, 0]],
            dtype=np.int64,
        )
        target = np.array([target_left], dtype=np.int64)
        rc = _NATIVE.rb_initial(
            1, row.ctypes.data, target.ctypes.data, starts_np.ctypes.data,
            ntrials, _MAX_BOUND,
        )
        if rc == 0:
            return out

    # Pure-Python kernels (reference implementation and fallback).
    bound = graph.max_incident_weight()
    starts = starts_arr.tolist()
    _, _, _, vweights = graph.adjacency_lists()
    nbrs, wts = graph.neighbor_slices()
    # Gain of an unabsorbed vertex u: (weight to grown side) minus
    # (weight to outside) = 2 * w(u, left) - total_edge_weight(u).
    if n <= 512:
        total_w_l = [sum(wv) for wv in wts]
    else:
        total_w = np.zeros(n, dtype=np.int64)
        np.add.at(
            total_w,
            np.repeat(np.arange(n), graph.degrees()),
            graph.eweights,
        )
        total_w_l = total_w.tolist()
    # Growth gains lie in [-bound, bound]; moderate bounds use the
    # bucket-gain queue (same pop order as the historical lazy heap —
    # see metis.refine), heavy coarse weights fall back to the heap.
    grow = _grow_trial_buckets if bound <= 512 else _grow_trial_heap
    best_side: list[int] | None = None
    best_cut: int | None = None
    for trial in range(ntrials):
        start = pseudo_peripheral_vertex(graph) if trial == 0 else starts[trial - 1]
        side, cut = grow(
            nbrs, wts, vweights, total_w_l, start, target_left, bound,
        )
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_side = side
    assert best_side is not None
    return np.array(best_side, dtype=np.int64)


def _grow_trial_heap(
    nbrs: list,
    wts: list,
    vweights: list[int],
    total_w_l: list[int],
    start: int,
    target_left: int,
    bound: int,
) -> tuple[list[int], int]:
    """One GGGP growth with a lazy max-heap; returns ``(side, cut)``."""
    n = len(total_w_l)
    side = [1] * n
    in_left = bytearray(n)
    weight_left = 0
    # Max-heap of (-gain, tiebreak, vertex); gain = weight to the
    # grown side minus weight to the outside (absorbing a vertex
    # changes the cut by -gain), so the growth cut is tracked
    # incrementally instead of recomputed per trial.
    heap: list[tuple[int, int, int]] = []
    counter = 1
    gain_cache = [0] * n
    frontier_seen = bytearray(n)
    gain_cache[start] = -total_w_l[start]
    frontier_seen[start] = True
    heapq.heappush(heap, (-gain_cache[start], 0, start))
    cut = 0
    while weight_left < target_left:
        while heap:
            negg, _, v = heapq.heappop(heap)
            if not in_left[v] and -negg == gain_cache[v]:
                break
        else:
            # Heap empty (component exhausted): jump to the
            # first unabsorbed vertex.
            v = next((u for u in range(n) if not in_left[u]), -1)
            if v < 0:
                break
            if not frontier_seen[v]:
                # No absorbed neighbors: absorbing adds its whole
                # incident weight to the cut.
                gain_cache[v] = -total_w_l[v]
        in_left[v] = True
        side[v] = 0
        weight_left += vweights[v]
        cut -= gain_cache[v]
        for u, w in zip(nbrs[v], wts[v]):
            if in_left[u]:
                continue
            if not frontier_seen[u]:
                gain_cache[u] = -total_w_l[u]
                frontier_seen[u] = True
            gain_cache[u] += w + w
            heapq.heappush(heap, (-gain_cache[u], counter, u))
            counter += 1
    return side, cut


def _grow_trial_buckets(
    nbrs: list,
    wts: list,
    vweights: list[int],
    total_w_l: list[int],
    start: int,
    target_left: int,
    bound: int,
) -> tuple[list[int], int]:
    """One GGGP growth with a bucket-gain queue; returns ``(side, cut)``.

    Pop order matches :func:`_grow_trial_heap` exactly (highest gain
    first, FIFO = insertion order within a gain value).  Absorption is
    fused into ``gain_cache``: absorbed vertices get the impossible
    gain ``bound + 1``, failing both the freshness test and the
    neighbor-update guard.
    """
    n = len(total_w_l)
    sent = bound + 1
    side = [1] * n
    weight_left = 0
    # Slot 0 (pseudo-gain -bound - 1) holds a stop sentinel the drain
    # loop reaches exactly when every real entry has been popped; it is
    # re-armed after a component-exhausted fallback so later growth
    # rounds still terminate.
    off = bound + 1
    buckets: list = [None] * (2 * bound + 2)
    buckets[0] = deque((-1,))
    gain_cache = [0] * n
    frontier_seen = bytearray(n)
    g0 = -total_w_l[start]
    gain_cache[start] = g0
    frontier_seen[start] = True
    buckets[g0 + off] = deque((start,))
    maxg = g0
    cut = 0
    while weight_left < target_left:
        while True:
            b = buckets[maxg + off]
            while not b:
                maxg -= 1
                b = buckets[maxg + off]
            v = b.popleft()
            if v < 0 or gain_cache[v] == maxg:
                break
        if v < 0:
            # Queue exhausted (component done): re-arm the sentinel and
            # jump to the first unabsorbed vertex.
            b.append(-1)
            v = next((u for u in range(n) if gain_cache[u] <= bound), -1)
            if v < 0:
                break
            if not frontier_seen[v]:
                # No absorbed neighbors: absorbing adds its whole
                # incident weight to the cut.
                gain_cache[v] = -total_w_l[v]
        side[v] = 0
        weight_left += vweights[v]
        cut -= gain_cache[v]
        gain_cache[v] = sent
        for u, w in zip(nbrs[v], wts[v]):
            g = gain_cache[u]
            if g > bound:
                continue
            if not frontier_seen[u]:
                g = -total_w_l[u]
                frontier_seen[u] = True
            g += w + w
            gain_cache[u] = g
            b = buckets[g + off]
            if b is None:
                buckets[g + off] = deque((u,))
            else:
                b.append(u)
            if g > maxg:
                maxg = g
    return side, cut


def spectral_initial_bisection(
    graph: CSRGraph, target_left: int, seed: int = 0
) -> np.ndarray:
    """Bisection by splitting the Fiedler order at the weight target."""
    order = spectral_bisection_order(graph, seed)
    return _split_from_order(graph, order, target_left)


