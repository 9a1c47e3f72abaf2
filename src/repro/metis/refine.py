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

import heapq
from collections import deque

import numpy as np

from .._native import LIB as _NATIVE
from .._native import MAX_BOUND as _MAX_BOUND
from ..graphs.csr import CSRGraph

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


def _external_internal(
    graph: CSRGraph, side: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex external/internal degree for a 2-way partition."""
    n = graph.nvertices
    src = graph.edge_sources()
    same = side[src] == side[graph.indices]
    ed = np.zeros(n, dtype=np.int64)
    idg = np.zeros(n, dtype=np.int64)
    np.add.at(ed, src[~same], graph.eweights[~same])
    np.add.at(idg, src[same], graph.eweights[same])
    return ed, idg


def _fm_gains(
    graph: CSRGraph,
    side_l: list[int],
    nbrs: list,
    wts: list,
) -> list[int]:
    """Per-vertex FM gain (external - internal degree), as int list.

    Small graphs (the bulk of the recursive-bisection workload) use a
    plain-int loop; larger ones the vectorized reduction.  Both are
    exact integer arithmetic, hence interchangeable.
    """
    n = len(side_l)
    if n > 512:
        ed, idg = _external_internal(graph, np.array(side_l, dtype=np.int64))
        return (ed - idg).tolist()
    gain = [0] * n
    for v in range(n):
        sv = side_l[v]
        g = 0
        for u, w in zip(nbrs[v], wts[v]):
            g += w if side_l[u] != sv else -w
        gain[v] = g
    return gain


def _rebalance_bisection(
    graph: CSRGraph,
    side: np.ndarray,
    caps: tuple[int, int],
    weights: list[int],
) -> None:
    """Move min-cut-damage vertices off an overweight side (in place).

    Coarse-level bisections can violate the weight caps by up to one
    coarse-vertex weight (coarse vertices are atomic); once projected
    to a finer level the atoms are smaller, and this pass restores
    feasibility before FM optimizes the cut.  Best-effort: stops when
    no move can make progress.
    """
    while True:
        over = next((s for s in (0, 1) if weights[s] > caps[s]), None)
        if over is None:
            return
        other = 1 - over
        ed, idg = _external_internal(graph, side)
        gain = ed - idg
        candidates = np.flatnonzero(side == over)
        room = caps[other] - weights[other]
        fits = candidates[graph.vweights[candidates] <= room]
        if len(fits) == 0:
            return
        v = int(fits[np.argmax(gain[fits])])
        vw = int(graph.vweights[v])
        side[v] = other
        weights[over] -= vw
        weights[other] += vw


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
    caps = (max_left_weight, max_right_weight)
    side_arr = np.array(side, dtype=np.int64)
    if _NATIVE is not None:
        # One row of the batched kernel: rebalance + passes in C; a
        # declined call (allocation, gain bound) leaves side_arr as is.
        row = np.array(
            [[n, *graph.addresses(), side_arr.ctypes.data, 0, 0, *caps]],
            dtype=np.int64,
        )
        if _NATIVE.rb_refine(1, row.ctypes.data, max_passes, _MAX_BOUND) == 0:
            return side_arr

    # Pure-Python kernels (reference implementation and fallback).
    w1 = int(side_arr @ graph.vweights) if n else 0
    w0 = graph.total_vweight() - w1
    if w0 > caps[0] or w1 > caps[1]:
        # Rare projected-cap violation: run the vectorized rebalance
        # before the pass loop.
        weights = [w0, w1]
        _rebalance_bisection(graph, side_arr, caps, weights)
        w0, w1 = weights
    if not len(graph.indices):
        # Edgeless graph: every gain is 0, so a pass moves vertices,
        # never beats best_cum = 0, and rolls everything back.
        return side_arr
    # During a pass one extra atom may sit on either side (classic FM
    # lets the frontier cross the balance line and rolls back to the
    # best *feasible* prefix); otherwise a tight, balanced start would
    # admit no moves at all.
    slack = graph.max_vweight()
    pass_caps = (caps[0] + slack, caps[1] + slack)
    bound = graph.max_incident_weight()
    # The pass loop works over the cached adjacency lists; gains are
    # (re)initialized at each pass start.  Two exactly-equivalent
    # priority structures back the best-gain-first order: a
    # bucket-gain queue (gains are bounded by the largest incident
    # edge weight, so an O(1) FIFO bucket per gain value reproduces
    # the lazy heap's (-gain, insertion-counter) pop order), with a
    # binary-heap fallback for weight-heavy coarse graphs whose gain
    # range would make bucket scans slower than the heap.
    _, _, _, vweights = graph.adjacency_lists()
    nbrs, wts = graph.neighbor_slices()
    side_l: list[int] = side_arr.tolist()
    for _ in range(max_passes):
        if bound <= 512:
            gain, buckets, maxg = _seed_gain_buckets(
                graph, side_l, nbrs, wts, bound
            )
            w0, w1, best_cum = _fm_pass_buckets(
                nbrs, wts, vweights, side_l, gain,
                buckets, maxg, w0, w1, caps, pass_caps, bound,
            )
        else:
            gain = _fm_gains(graph, side_l, nbrs, wts)
            w0, w1, best_cum = _fm_pass_heap(
                nbrs, wts, vweights, side_l, gain,
                w0, w1, caps, pass_caps,
            )
        if best_cum <= 0:
            break
    return np.array(side_l, dtype=np.int64)


def _seed_gain_buckets(
    graph: CSRGraph,
    side_l: list[int],
    nbrs: list,
    wts: list,
    bound: int,
) -> tuple[list[int], list, int]:
    """Initial gains plus the seeded bucket queue for one FM pass.

    Buckets are a flat list indexed by ``gain + bound``; each slot is a
    FIFO deque of vertices in index order, matching the pop order of a
    lazy heap seeded with ``(-gain[v], v)`` keys.  Small graphs fuse
    the gain loop and the seeding; larger ones compute gains
    vectorized and seed via a stable sort (ties resolved by index,
    preserving the same FIFO order).
    """
    n = len(side_l)
    # Slot 0 (gain -bound - 1, below any real gain) holds a permanent
    # stop sentinel: the drain loop reaches it exactly when every real
    # entry has been popped, replacing a per-operation pending counter.
    off = bound + 1
    buckets: list = [None] * (2 * bound + 2)
    buckets[0] = deque((-1,))
    maxg = -bound
    if n <= 96:
        gain = [0] * n
        for v in range(n):
            sv = side_l[v]
            g = 0
            for u, w in zip(nbrs[v], wts[v]):
                g += w if side_l[u] != sv else -w
            gain[v] = g
            b = buckets[g + off]
            if b is None:
                buckets[g + off] = deque((v,))
                if g > maxg:
                    maxg = g
            else:
                b.append(v)
        return gain, buckets, maxg
    ed, idg = _external_internal(graph, np.array(side_l, dtype=np.int64))
    gain_arr = ed - idg
    order = np.argsort(-gain_arr, kind="stable")
    sorted_g = gain_arr[order]
    # Runs of equal gain become one FIFO each (stable sort keeps the
    # vertices within a run in index order).
    starts = np.flatnonzero(np.diff(sorted_g)) + 1
    prev = 0
    for stop in starts.tolist() + [n]:
        g = int(sorted_g[prev])
        buckets[g + off] = deque(order[prev:stop].tolist())
        prev = stop
    if n:
        maxg = int(sorted_g[0])
    return gain_arr.tolist(), buckets, maxg


def _fm_pass_heap(
    nbrs: list,
    wts: list,
    vweights: list[int],
    side_l: list[int],
    gain: list[int],
    w0: int,
    w1: int,
    caps: tuple[int, int],
    pass_caps: tuple[int, int],
) -> tuple[int, int, int]:
    """One FM pass with a lazy binary heap; mutates ``side_l``."""
    n = len(side_l)
    locked = bytearray(n)
    # Building via heapify is equivalent to n pushes: every key is
    # unique (the tiebreak counter), so the pop order is the same.
    heap: list[tuple[int, int, int]] = [(-gain[v], v, v) for v in range(n)]
    heapq.heapify(heap)
    counter = n
    moves: list[int] = []
    cum = 0
    best_cum = 0
    best_len = 0
    while heap:
        negg, _, v = heapq.heappop(heap)
        if locked[v] or -negg != gain[v]:
            continue
        frm = side_l[v]
        to = 1 - frm
        vw = vweights[v]
        if (w1 if to else w0) + vw > pass_caps[to]:
            continue
        # Execute the tentative move.
        locked[v] = 1
        side_l[v] = to
        if frm == 0:
            w0 -= vw
            w1 += vw
        else:
            w1 -= vw
            w0 += vw
        cum += gain[v]
        moves.append(v)
        if cum > best_cum and w0 <= caps[0] and w1 <= caps[1]:
            best_cum = cum
            best_len = len(moves)
        for u, w in zip(nbrs[v], wts[v]):
            if locked[u]:
                continue
            # Edge u-v flips between internal and external.
            gain[u] += 2 * w if side_l[u] == frm else -2 * w
            heapq.heappush(heap, (-gain[u], counter, u))
            counter += 1
    return _fm_rollback(side_l, vweights, moves, best_len, w0, w1, best_cum)


def _fm_pass_buckets(
    nbrs: list,
    wts: list,
    vweights: list[int],
    side_l: list[int],
    gain: list[int],
    buckets: list,
    maxg: int,
    w0: int,
    w1: int,
    caps: tuple[int, int],
    pass_caps: tuple[int, int],
    bound: int,
) -> tuple[int, int, int]:
    """One FM pass over a pre-seeded bucket queue; mutates ``side_l``.

    Entries live in a FIFO bucket per gain value (gains lie in
    ``[-bound, bound]``, so buckets are a flat list indexed by
    ``gain + bound + 1``, slot 0 being the stop sentinel); popping
    always drains the highest non-empty bucket.  Because the lazy heap
    pops its (unique) keys in ``(-gain, counter)`` order and bucket
    FIFO preserves insertion (= counter) order within a gain value,
    the two structures process the exact same entry sequence.  Locking
    is fused into ``gain``: a moved vertex's gain is set to
    ``bound + 1``, an impossible value that fails both the freshness
    test at pop time and the ``<= bound`` test in the neighbor update.
    """
    off = bound + 1
    locked_mark = bound + 1
    cap0, cap1 = caps
    pcap0, pcap1 = pass_caps
    moves: list[int] = []
    app_move = moves.append
    cum = 0
    best_cum = 0
    best_len = 0
    b = buckets[maxg + off]
    while True:
        while not b:
            maxg -= 1
            b = buckets[maxg + off]
        v = b.popleft()
        if maxg != gain[v]:
            # Stale entry (or the sentinel, whose pseudo-gain is below
            # every real gain so the test always fires for it).
            if v < 0:
                break
            continue
        frm = side_l[v]
        vw = vweights[v]
        if frm == 0:
            if w1 + vw > pcap1:
                continue
            w0 -= vw
            w1 += vw
        else:
            if w0 + vw > pcap0:
                continue
            w1 -= vw
            w0 += vw
        # Execute the tentative move.
        gain[v] = locked_mark
        side_l[v] = 1 - frm
        cum += maxg
        app_move(v)
        if cum > best_cum and w0 <= cap0 and w1 <= cap1:
            best_cum = cum
            best_len = len(moves)
        for u, w in zip(nbrs[v], wts[v]):
            g = gain[u]
            if g > bound:
                continue
            # Edge u-v flips between internal and external.
            g += w + w if side_l[u] == frm else -w - w
            gain[u] = g
            bu = buckets[g + off]
            if bu is None:
                buckets[g + off] = deque((u,))
            else:
                bu.append(u)
            if g > maxg:
                maxg = g
        b = buckets[maxg + off]
    return _fm_rollback(side_l, vweights, moves, best_len, w0, w1, best_cum)


def _fm_rollback(
    side_l: list[int],
    vweights: list[int],
    moves: list[int],
    best_len: int,
    w0: int,
    w1: int,
    best_cum: int,
) -> tuple[int, int, int]:
    """Undo the moves past the best feasible prefix of an FM pass."""
    for v in moves[best_len:]:
        to = 1 - side_l[v]
        vw = vweights[v]
        side_l[v] = to
        if to == 0:
            w1 -= vw
            w0 += vw
        else:
            w0 -= vw
            w1 += vw
    return w0, w1, best_cum


class _VolumeGainKernel:
    """Batched METIS TotalVol gain: Δ count-based volume if ``v`` moves.

    METIS's TV objective models the volume of a vertex as
    ``vsize * |distinct external parts among its neighbors|`` (unit
    vertex sizes here).  Note this is a *model*: the physically
    measured TCV of :mod:`repro.partition.metrics` weighs every cut
    interface by its shared boundary points, so minimizing this model
    can fail to minimize measured TCV — the anomaly the paper reports
    for METIS's TV partitions ("directly contradicts the expected
    minimization property").

    The historical implementation recomputed each neighbor's
    part-count census per candidate part — ``O(deg² · ncand)`` NumPy
    scalar work per boundary vertex.  This kernel builds the census
    once per vertex (:meth:`prepare`), after which each candidate
    evaluates in ``O(deg)`` plain-int lookups (:meth:`gain`), with
    identical integer results.
    """

    def __init__(self, nbrs: list) -> None:
        self._nbrs = nbrs
        self._frm = 0
        self._base = 0
        self._before_v = 0
        self._nbr_parts: set[int] = set()
        self._census: list[tuple[int, dict[int, int]]] = []

    def prepare(self, assignment: list[int], v: int, frm: int) -> None:
        """Census the two-hop neighborhood of ``v`` under ``assignment``."""
        nbrs = self._nbrs
        self._frm = frm
        self._nbr_parts = {assignment[u] for u in nbrs[v]}
        self._before_v = len(self._nbr_parts - {frm})
        census = []
        base = 0
        for u in nbrs[v]:
            pu = assignment[u]
            cnt: dict[int, int] = {}
            for x in nbrs[u]:
                px = assignment[x]
                cnt[px] = cnt.get(px, 0) + 1
            # Moving v away may erase `frm` from u's neighbor parts;
            # this term does not depend on the destination.
            if frm != pu and cnt.get(frm, 0) == 1:
                base += 1
            census.append((pu, cnt))
        self._base = base
        self._census = census

    def gain(self, to: int) -> int:
        """Gain of moving the prepared vertex to part ``to``."""
        after_v = len(self._nbr_parts - {to})
        g = self._before_v - after_v + self._base
        for pu, cnt in self._census:
            if to != pu and cnt.get(to, 0) == 0:  # move introduces `to` at u
                g -= 1
        return g


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
    total = graph.total_vweight()
    cap = balance_constraint(total, nparts, ubfactor)
    ideal_cap = int(np.ceil(total / nparts - 1e-9))
    # One slot per part id present (bincount grows past nparts if the
    # input holds a larger id); the C kernel sizes its scratch by it.
    pweights_arr = np.bincount(
        assignment, weights=graph.vweights, minlength=nparts
    ).astype(np.int64)
    if _NATIVE is not None:
        refined = _greedy_kway_native(
            graph, assignment, pweights_arr, cap, ideal_cap,
            objective == "volume", max_passes, seed,
        )
        if refined is not None:
            return refined

    # Pure-Python kernel (reference implementation and fallback).
    rng = np.random.default_rng(seed)
    assign: list[int] = assignment.astype(np.int64).tolist()
    pweights: list[int] = pweights_arr.tolist()
    _, _, _, vweights = graph.adjacency_lists()
    nbrs, wts = graph.neighbor_slices()
    volume = objective == "volume"
    vgain = _VolumeGainKernel(nbrs) if volume else None
    for _ in range(max_passes):
        improved = False
        for v in rng.permutation(n).tolist():
            frm = assign[v]
            # Connectivity of v to each adjacent part (insertion order
            # = first appearance in the adjacency slice, which fixes
            # the candidate-evaluation order below).
            conn: dict[int, int] = {}
            for u, w in zip(nbrs[v], wts[v]):
                p = assign[u]
                conn[p] = conn.get(p, 0) + w
            if not conn or (len(conn) == 1 and frm in conn):
                continue  # interior (or isolated) vertex
            vw = vweights[v]
            internal = conn.get(frm, 0)
            if volume:
                vgain.prepare(assign, v, frm)
            best_to = -1
            best_gain = 0
            best_conn = -1
            for p, c in conn.items():
                if p == frm:
                    continue
                if pweights[p] + vw > cap:
                    continue
                gain = c - internal if not volume else vgain.gain(p)
                if best_to < 0 or gain > best_gain or (
                    gain == best_gain and c > best_conn
                ):
                    best_to, best_gain, best_conn = p, gain, c
            if best_to < 0:
                continue
            # Accept strictly improving moves; otherwise only moves
            # that drain an over-full part, chosen so a monotone
            # potential (total overflow above the relevant cap)
            # strictly decreases — this is the balance escape hatch
            # and it cannot ping-pong.
            accept = best_gain > 0
            if not accept and pweights[frm] > cap:
                accept = True  # negative gain allowed to fix hard overflow
            if (
                not accept
                and best_gain == 0
                and pweights[frm] > ideal_cap >= pweights[best_to] + vw
            ):
                accept = True
            if accept:
                assign[v] = best_to
                pweights[frm] -= vw
                pweights[best_to] += vw
                improved = True
        if not improved:
            break
    return np.array(assign, dtype=np.int64)


def _greedy_kway_native(
    graph: CSRGraph,
    assignment: np.ndarray,
    pweights: np.ndarray,
    cap: int,
    ideal_cap: int,
    volume: bool,
    max_passes: int,
    seed: int,
) -> np.ndarray | None:
    """Pass loop of :func:`greedy_kway_refine` over the C sweep kernel.

    Each pass draws its visit order from the same generator as the
    Python loop, and the kernel reports how many moves it accepted;
    a pass without moves ends the loop.  Returns ``None`` if the
    kernel fails to allocate its scratch (the caller then runs the
    Python loop from the start).
    """
    n = graph.nvertices
    rng = np.random.default_rng(seed)
    assign = np.array(assignment, dtype=np.int64)
    pweights = pweights.copy()  # the Python fallback restarts from it
    csr = graph.addresses()
    assign_p, pweights_p = assign.ctypes.data, pweights.ctypes.data
    for _ in range(max_passes):
        perm = rng.permutation(n).astype(np.int64, copy=False)
        moved = _NATIVE.kway_refine(
            n, *csr, perm.ctypes.data, assign_p, pweights_p,
            len(pweights), cap, ideal_cap, volume,
        )
        if moved < 0:
            return None
        if moved == 0:
            break
    return assign
