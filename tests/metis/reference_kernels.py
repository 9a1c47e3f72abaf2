"""Pure-Python oracles of the compiled METIS kernels.

``repro.metis`` runs each hot kernel in C (``repro/_kernels.c``).  The
Python statements here are what those kernels restate bit for bit;
they exist only as test oracles (``tests/metis/test_golden.py``,
``tests/metis/test_properties.py``), one per kernel:

* :func:`subgraph` — ``rb_extract`` / ``CSRGraph.subgraph``;
* :func:`heavy_edge_matching` — ``hem_claim``;
* :func:`contract` — ``contract``;
* :func:`pseudo_peripheral_vertex` — ``pseudo_peripheral``;
* :func:`greedy_graph_growing` — ``rb_initial`` (GGG trials);
* :func:`fm_refine_bisection` — ``rb_refine`` (rebalance + FM passes);
* :func:`greedy_kway_refine` — ``kway_refine``;
* :func:`multilevel_bisection` — ``rb_bisect``;
* :func:`recursive_bisection` — ``rb_partition``, the level-synchronous
  driver, as the depth-first loop over :func:`multilevel_bisection`;
* :func:`part_graph` — ``repro.metis.part_graph`` over these oracles.

Each priority queue is a lazy binary heap keyed ``(-gain, insertion
counter)``: "highest gain first, FIFO within a gain value", the order
the C bucket queues reproduce.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.traversal import bfs_levels
from repro.metis.bisection import COARSEST_NVERTICES
from repro.metis.coarsen import MAX_LEVELS, CoarseLevel
from repro.metis.initial import NTRIALS
from repro.metis.kway import COARSEN_VERTICES_PER_PART, MIN_COARSE_VERTICES
from repro.metis.refine import FM_PASSES, balance_constraint


def subgraph(graph: CSRGraph, vertices: np.ndarray) -> CSRGraph:
    """Induced subgraph on ``vertices`` (ascending), vectorized."""
    vertices = np.asarray(vertices, dtype=np.int64)
    local = -np.ones(graph.nvertices, dtype=np.int64)
    local[vertices] = np.arange(len(vertices))
    src_all = graph.edge_sources()
    keep = (local[src_all] >= 0) & (local[graph.indices] >= 0)
    u = local[src_all[keep]]
    v = local[graph.indices[keep]]
    w = graph.eweights[keep]
    order = np.lexsort((v, u))
    u, v, w = u[order], v[order], w[order]
    indptr = np.searchsorted(u, np.arange(len(vertices) + 1)).astype(np.int64)
    return CSRGraph(
        indptr=indptr,
        indices=v.copy(),
        eweights=w.copy(),
        vweights=graph.vweights[vertices].copy(),
    )


def heavy_edge_matching(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """HEM/SHEM: vertices visit in a random order stably sorted by
    degree; each claims its heaviest free neighbor, the first in
    adjacency order on ties."""
    n = graph.nvertices
    order = np.random.default_rng(seed).permutation(n)
    order = order[np.argsort(graph.degrees()[order], kind="stable")]
    nbrs, wts = graph.neighbor_slices()
    match = list(range(n))
    matched = bytearray(n)
    for v in order.tolist():
        if matched[v]:
            continue
        best_w = -1
        best_u = -1
        for u, w in zip(nbrs[v], wts[v]):
            if not matched[u] and w > best_w:
                best_w = w
                best_u = u
        if best_u >= 0:
            match[v] = best_u
            match[best_u] = v
            matched[v] = matched[best_u] = 1
    return np.array(match, dtype=np.int64)


def contract(graph: CSRGraph, match: np.ndarray) -> CoarseLevel:
    """Contract a matching: coarse ids number pairs by their smaller
    endpoint; parallel coarse edges merge, intra-pair edges vanish."""
    n = graph.nvertices
    match = np.asarray(match)
    rep = np.minimum(np.arange(n), match)
    uniq, coarse_of = np.unique(rep, return_inverse=True)
    nc = len(uniq)
    cvw = np.zeros(nc, dtype=np.int64)
    np.add.at(cvw, coarse_of, graph.vweights)
    src = np.repeat(np.arange(n), graph.degrees())
    csrc = coarse_of[src]
    cdst = coarse_of[graph.indices]
    keep = csrc != cdst
    csrc, cdst, w = csrc[keep], cdst[keep], graph.eweights[keep]
    key = csrc.astype(np.int64) * nc + cdst
    order = np.argsort(key, kind="stable")
    key, w = key[order], w[order]
    uniq_key, start = np.unique(key, return_index=True)
    sums = np.add.reduceat(w, start) if len(key) else np.empty(0, dtype=np.int64)
    usrc = (uniq_key // nc).astype(np.int64)
    udst = (uniq_key % nc).astype(np.int64)
    indptr = np.searchsorted(usrc, np.arange(nc + 1)).astype(np.int64)
    coarse = CSRGraph(
        indptr=indptr, indices=udst.copy(), eweights=sums.astype(np.int64), vweights=cvw
    )
    return CoarseLevel(graph=coarse, fine_to_coarse=coarse_of)


def coarsen_to(graph: CSRGraph, target_nvertices: int, seed: int = 0) -> list[CoarseLevel]:
    """``repro.metis.coarsen.coarsen_to`` over the oracle HEM and contract."""
    levels: list[CoarseLevel] = []
    current = graph
    for lvl in range(MAX_LEVELS):
        if current.nvertices <= target_nvertices:
            break
        level = contract(current, heavy_edge_matching(current, seed=seed + lvl))
        if level.graph.nvertices > 0.9 * current.nvertices:
            break
        levels.append(level)
        current = level.graph
    return levels


def pseudo_peripheral_vertex(
    graph: CSRGraph, mask: np.ndarray | None = None, start: int | None = None
) -> int:
    """A vertex of near-maximal eccentricity (George-Liu heuristic).

    Repeatedly BFS from the current candidate and jump to the first
    farthest vertex until the eccentricity stops growing.  Seeds greedy
    graph growing so the grown region sweeps across the graph instead
    of curling around an interior seed.
    """
    if start is None:
        if mask is None:
            start = 0
        else:
            nz = np.flatnonzero(mask)
            if len(nz) == 0:
                raise ValueError("mask selects no vertices")
            start = int(nz[0])
    current = start
    ecc = -1
    while True:
        level = bfs_levels(graph, current, mask)
        far = int(level.max())
        if far <= ecc:
            return current
        ecc = far
        current = int(np.argmax(level))


def greedy_graph_growing(
    graph: CSRGraph, target_left: int, seed: int = 0, ntrials: int = NTRIALS
) -> np.ndarray:
    """GGGP: ``ntrials`` growths (the first from a pseudo-peripheral
    vertex, the rest from random ones); the smallest cut wins."""
    n = graph.nvertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.random.default_rng(seed).integers(n, size=ntrials - 1).tolist()
    _, _, _, vweights = graph.adjacency_lists()
    nbrs, wts = graph.neighbor_slices()
    total_w = [sum(w) for w in wts]
    best_side: list[int] = []
    best_cut: int | None = None
    for trial in range(ntrials):
        start = pseudo_peripheral_vertex(graph) if trial == 0 else starts[trial - 1]
        side, cut = _grow_trial(nbrs, wts, vweights, total_w, start, target_left)
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_side = side
    return np.array(best_side, dtype=np.int64)


def _grow_trial(
    nbrs: list,
    wts: list,
    vweights: list[int],
    total_w: list[int],
    start: int,
    target_left: int,
) -> tuple[list[int], int]:
    """One GGGP growth; returns ``(side, cut)``.

    The gain of an unabsorbed vertex is its weight to the grown side
    minus its weight to the outside; absorbing it changes the cut by
    ``-gain``.
    """
    n = len(total_w)
    side = [1] * n
    in_left = bytearray(n)
    weight_left = 0
    heap: list[tuple[int, int, int]] = []
    counter = 1
    gain_cache = [0] * n
    frontier_seen = bytearray(n)
    gain_cache[start] = -total_w[start]
    frontier_seen[start] = True
    heapq.heappush(heap, (-gain_cache[start], 0, start))
    cut = 0
    while weight_left < target_left:
        while heap:
            negg, _, v = heapq.heappop(heap)
            if not in_left[v] and -negg == gain_cache[v]:
                break
        else:
            # Component exhausted: jump to the first unabsorbed vertex.
            v = next((u for u in range(n) if not in_left[u]), -1)
            if v < 0:
                break
            if not frontier_seen[v]:
                gain_cache[v] = -total_w[v]
        in_left[v] = True
        side[v] = 0
        weight_left += vweights[v]
        cut -= gain_cache[v]
        for u, w in zip(nbrs[v], wts[v]):
            if in_left[u]:
                continue
            if not frontier_seen[u]:
                gain_cache[u] = -total_w[u]
                frontier_seen[u] = True
            gain_cache[u] += w + w
            heapq.heappush(heap, (-gain_cache[u], counter, u))
            counter += 1
    return side, cut


def _external_internal(graph: CSRGraph, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex external/internal degree for a 2-way partition."""
    src = graph.edge_sources()
    same = side[src] == side[graph.indices]
    ed = np.zeros(graph.nvertices, dtype=np.int64)
    idg = np.zeros(graph.nvertices, dtype=np.int64)
    np.add.at(ed, src[~same], graph.eweights[~same])
    np.add.at(idg, src[same], graph.eweights[same])
    return ed, idg


def _rebalance_bisection(
    graph: CSRGraph, side: np.ndarray, caps: tuple[int, int], weights: list[int]
) -> None:
    """Move min-cut-damage vertices off an overweight side (in place)
    until both caps hold or no vertex fits the other side."""
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


def fm_refine_bisection(
    graph: CSRGraph,
    side: np.ndarray,
    max_left_weight: int,
    max_right_weight: int,
    max_passes: int = FM_PASSES,
) -> np.ndarray:
    """Rebalance, then Fiduccia-Mattheyses passes with rollback to the
    best feasible prefix, until a pass gains nothing."""
    n = graph.nvertices
    caps = (max_left_weight, max_right_weight)
    side_arr = np.array(side, dtype=np.int64)
    w1 = int(side_arr @ graph.vweights) if n else 0
    w0 = graph.total_vweight() - w1
    if w0 > caps[0] or w1 > caps[1]:
        weights = [w0, w1]
        _rebalance_bisection(graph, side_arr, caps, weights)
        w0, w1 = weights
    if not len(graph.indices):
        return side_arr
    # During a pass one extra atom may sit on either side; the rollback
    # keeps only feasible prefixes.
    slack = int(graph.vweights.max())
    pass_caps = (caps[0] + slack, caps[1] + slack)
    _, _, _, vweights = graph.adjacency_lists()
    nbrs, wts = graph.neighbor_slices()
    side_l: list[int] = side_arr.tolist()
    for _ in range(max_passes):
        ed, idg = _external_internal(graph, np.array(side_l, dtype=np.int64))
        gain = (ed - idg).tolist()
        w0, w1, best_cum = _fm_pass(
            nbrs, wts, vweights, side_l, gain, w0, w1, caps, pass_caps
        )
        if best_cum <= 0:
            break
    return np.array(side_l, dtype=np.int64)


def _fm_pass(
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
    """One FM pass; mutates ``side_l``, returns ``(w0, w1, best_cum)``."""
    n = len(side_l)
    locked = bytearray(n)
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
    # Roll back the moves past the best feasible prefix.
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
    """METIS TotalVol gain: Δ count-based volume if ``v`` moves.

    :meth:`prepare` censuses the two-hop neighborhood of ``v`` once;
    :meth:`gain` then evaluates each candidate part in ``O(deg)``.
    """

    def __init__(self, nbrs: list) -> None:
        self._nbrs = nbrs
        self._base = 0
        self._before_v = 0
        self._nbr_parts: set[int] = set()
        self._census: list[tuple[int, dict[int, int]]] = []

    def prepare(self, assignment: list[int], v: int, frm: int) -> None:
        nbrs = self._nbrs
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
            # Moving v away may erase `frm` from u's neighbor parts.
            if frm != pu and cnt.get(frm, 0) == 1:
                base += 1
            census.append((pu, cnt))
        self._base = base
        self._census = census

    def gain(self, to: int) -> int:
        g = self._before_v - len(self._nbr_parts - {to}) + self._base
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
    """Greedy K-way refinement: boundary vertices in random order move
    to the best-gain adjacent part the cap allows."""
    n = graph.nvertices
    total = graph.total_vweight()
    cap = balance_constraint(total, nparts, ubfactor)
    ideal_cap = int(np.ceil(total / nparts - 1e-9))
    pweights: list[int] = (
        np.bincount(assignment, weights=graph.vweights, minlength=nparts)
        .astype(np.int64)
        .tolist()
    )
    rng = np.random.default_rng(seed)
    assign: list[int] = assignment.astype(np.int64).tolist()
    _, _, _, vweights = graph.adjacency_lists()
    nbrs, wts = graph.neighbor_slices()
    volume = objective == "volume"
    vgain = _VolumeGainKernel(nbrs)
    for _ in range(max_passes):
        improved = False
        for v in rng.permutation(n).tolist():
            frm = assign[v]
            # Connectivity of v to each adjacent part, in first-seen
            # order (which fixes the candidate order below).
            conn: dict[int, int] = {}
            for u, w in zip(nbrs[v], wts[v]):
                p = assign[u]
                conn[p] = conn.get(p, 0) + w
            if not conn or (len(conn) == 1 and frm in conn):
                continue
            vw = vweights[v]
            internal = conn.get(frm, 0)
            if volume:
                vgain.prepare(assign, v, frm)
            best_to = -1
            best_gain = 0
            best_conn = -1
            for p, c in conn.items():
                if p == frm or pweights[p] + vw > cap:
                    continue
                gain = vgain.gain(p) if volume else c - internal
                if best_to < 0 or gain > best_gain or (
                    gain == best_gain and c > best_conn
                ):
                    best_to, best_gain, best_conn = p, gain, c
            if best_to < 0:
                continue
            # Strictly improving moves; a hard overflow allows any gain;
            # a zero-gain move must drain a part above the ideal cap.
            accept = (
                best_gain > 0
                or pweights[frm] > cap
                or (
                    best_gain == 0
                    and pweights[frm] > ideal_cap >= pweights[best_to] + vw
                )
            )
            if accept:
                assign[v] = best_to
                pweights[frm] -= vw
                pweights[best_to] += vw
                improved = True
        if not improved:
            break
    return np.array(assign, dtype=np.int64)


def multilevel_bisection(
    graph: CSRGraph, target_left: int, ubfactor: float = 1.001, seed: int = 0
) -> np.ndarray:
    """Coarsen, grow an initial bisection, refine back up."""
    total = graph.total_vweight()
    if not 0 < target_left < total:
        raise ValueError("target_left must be strictly between 0 and total weight")
    target_right = total - target_left
    levels = coarsen_to(graph, COARSEST_NVERTICES, seed=seed)
    coarsest = levels[-1].graph if levels else graph
    side = greedy_graph_growing(coarsest, target_left, seed=seed)
    max_left = min(max(int(np.floor(ubfactor * target_left + 1e-9)), target_left), total)
    max_right = min(
        max(int(np.floor(ubfactor * target_right + 1e-9)), target_right), total
    )
    side = fm_refine_bisection(coarsest, side, max_left, max_right)
    fine_graphs = [graph] + [lv.graph for lv in levels[:-1]]
    for level, fine in zip(reversed(levels), reversed(fine_graphs)):
        side = fm_refine_bisection(
            fine, side[level.fine_to_coarse], max_left, max_right
        )
    return side


def recursive_bisection(
    graph: CSRGraph, nparts: int, ubfactor: float = 1.001, seed: int = 0
) -> np.ndarray:
    """Depth-first recursive bisection; each split divides the target
    weight in proportion to the part counts of its halves."""
    n = graph.nvertices
    assignment = np.zeros(n, dtype=np.int64)
    # Stack of (vertex ids, first part, part count, depth).
    stack = [(np.arange(n, dtype=np.int64), 0, nparts, 0)]
    while stack:
        ids, first, parts, depth = stack.pop()
        if parts == 1:
            assignment[ids] = first
            continue
        sub = subgraph(graph, ids)
        left_parts = parts // 2
        right_parts = parts - left_parts
        target_left = int(round(sub.total_vweight() * left_parts / parts))
        side = multilevel_bisection(
            sub, target_left, ubfactor=ubfactor, seed=seed + depth * 7919 + first
        )
        left_ids = ids[side == 0]
        right_ids = ids[side == 1]
        if len(left_ids) < left_parts or len(right_ids) < right_parts:
            # A side cannot host its parts: exact order-based split.
            half = max(
                left_parts,
                min(len(ids) - right_parts, int(round(len(ids) * left_parts / parts))),
            )
            left_ids, right_ids = ids[:half], ids[half:]
        stack.append((left_ids, first, left_parts, depth + 1))
        stack.append((right_ids, first + left_parts, right_parts, depth + 1))
    return assignment


def part_graph(graph: CSRGraph, nparts: int, method: str, seed: int = 0) -> np.ndarray:
    """Assignment of ``repro.metis.part_graph`` at its default
    ``ubfactor``, over the oracles."""
    if method == "rb":
        return recursive_bisection(graph, nparts, 1.01, seed)
    objective = "cut" if method == "kway" else "volume"
    target = max(COARSEN_VERTICES_PER_PART * nparts, MIN_COARSE_VERTICES)
    levels = coarsen_to(graph, target, seed=seed)
    coarsest = levels[-1].graph if levels else graph
    assignment = recursive_bisection(coarsest, nparts, 1.01, seed)
    assignment = greedy_kway_refine(
        coarsest, assignment, nparts, 1.03, objective, seed=seed
    )
    fine_graphs = [graph] + [lv.graph for lv in levels[:-1]]
    for level, fine in zip(reversed(levels), reversed(fine_graphs)):
        assignment = greedy_kway_refine(
            fine, assignment[level.fine_to_coarse], nparts, 1.03, objective, seed=seed
        )
    return assignment
