"""Multilevel bisection and the recursive-bisection (RB) partitioner.

RB is METIS's ``pmetis`` algorithm: recursively split the graph in two,
each split solved by the full multilevel machinery (coarsen with HEM,
bisect the coarsest graph with greedy graph growing, uncoarsen with FM
refinement at every level).  The paper: "the recursive bisection (RB)
algorithm is best for load balancing, but results in larger edgecuts
and total communication volume" — the tight per-split balance is what
produces that behaviour, and it is enforced here with a per-bisection
imbalance cap that defaults to (essentially) exact.
"""

from __future__ import annotations

import math

import numpy as np

from .._native import LIB as _NATIVE
from .._native import MAX_BOUND, TABLE_COLUMNS, check
from ..graphs.csr import CSRGraph
from ..partition.base import Partition
from ..telemetry import span
from .coarsen import MAX_LEVELS
from .initial import NTRIALS
from .refine import FM_PASSES
from .rng import Streams

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
    group of :func:`_bisect_level`.

    Args:
        graph: Graph to split.
        target_left: Desired total vertex weight of side 0.
        ubfactor: Per-side imbalance cap (default: essentially exact,
            METIS RB behaviour).
        seed: Determinism seed.

    Returns:
        ``(n,)`` int array of sides (0/1).
    """
    n = graph.nvertices
    return _bisect_level(
        graph,
        np.arange(n, dtype=np.int64),
        np.array([0, n], dtype=np.int64),
        len(graph.indices),
        np.array([target_left], dtype=np.int64),
        [seed],
        ubfactor,
    )


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

    The recursion runs level-synchronously.  Every bisection depends
    only on its vertex set, its part range and its seed ``seed + depth
    * 7919 + first``, never on the order a depth-first loop would visit
    it, so all bisections at one recursion depth ("groups") run
    together: their induced subgraphs are stored back to back in one
    set of buffers and each multilevel stage is one kernel call for all
    of them (:func:`_bisect_level`).  Every random stream still draws
    what the depth-first loop's NumPy ``default_rng`` calls draw
    (the oracle in ``tests/metis/reference_kernels.py``), a level's
    streams in one batch (:class:`~repro.metis.rng.Streams`).

    Returns:
        A :class:`Partition` labeled ``"rb"``.

    Raises:
        ValueError: ``nparts`` is outside ``[1, n]``, ``ubfactor`` is
            not finite, a split's weight target is not strictly between
            0 and its region's weight, or the vertex weights are too
            large for exact float split targets.
    """
    n = graph.nvertices
    if not 1 <= nparts <= n:
        raise ValueError("need 1 <= nparts <= nvertices")
    assignment = np.zeros(n, dtype=np.int64)
    if nparts == 1:
        return Partition(assignment, nparts=1, method="rb")
    degrees = graph.degrees()
    ids = np.arange(n, dtype=np.int64)
    gv = np.array([0, n], dtype=np.int64)
    first = np.zeros(1, dtype=np.int64)
    parts = np.array([nparts], dtype=np.int64)
    depth = 0
    while len(parts):  # every group here has >= 2 parts
        seeds = [seed + depth * 7919 + f for f in first.tolist()]
        left = parts // 2
        totals = np.add.reduceat(graph.vweights[ids], gv[:-1])
        if (totals * left).max() >= 2**53:  # the float targets are exact below
            raise ValueError("vertex weights too large for exact split targets")
        targets = np.rint(totals * left / parts).astype(np.int64)
        nedges = int(degrees[ids].sum())
        side = _bisect_level(graph, ids, gv, nedges, targets, seeds, ubfactor)
        k = len(parts)
        sizes = np.diff(gv)
        half = np.maximum(
            left,
            np.minimum(sizes - (parts - left), np.rint(sizes * left / parts).astype(np.int64)),
        )
        next_ids = np.empty(len(ids), dtype=np.int64)
        next_gv = np.empty(2 * k + 1, dtype=np.int64)
        next_first = np.empty(2 * k, dtype=np.int64)
        next_parts = np.empty(2 * k, dtype=np.int64)
        nk = _NATIVE.rb_split(
            k, ids.ctypes.data, gv.ctypes.data, side.ctypes.data,
            first.ctypes.data, parts.ctypes.data, half.ctypes.data,
            assignment.ctypes.data, next_ids.ctypes.data, next_gv.ctypes.data,
            next_first.ctypes.data, next_parts.ctypes.data,
        )
        ids = next_ids[: next_gv[nk]]
        gv, first, parts = next_gv[: nk + 1], next_first[:nk], next_parts[:nk]
        depth += 1
    return Partition(assignment, nparts=nparts, method="rb")


# ---------------------------------------------------------------------
# Level-synchronous multilevel bisection over the C kernels
# ---------------------------------------------------------------------

_ITEM = np.dtype(np.int64).itemsize


class _Union:
    """Graphs stored back to back in one set of flat CSR buffers.

    Graph ``i`` has its vertices at ``gv[i]``, its ``n_i + 1`` indptr
    entries (from 0) at ``gv[i] + i`` and its edges at ``ge[i]``, with
    graph-local neighbor ids: the layout ``rb_extract`` and
    ``rb_coarsen`` write.  ``side`` holds a bisection side per vertex;
    ``groups[i]`` is the recursion group graph ``i`` belongs to.
    """

    def __init__(self, nverts: int, groups: np.ndarray, nedges: int) -> None:
        self.groups = groups
        self.indptr = np.empty(nverts + len(groups), dtype=np.int64)
        self.indices = np.empty(nedges, dtype=np.int64)
        self.eweights = np.empty(nedges, dtype=np.int64)
        self.vweights = np.empty(nverts, dtype=np.int64)
        self.side = np.empty(nverts, dtype=np.int64)
        self.gv = np.empty(len(groups) + 1, dtype=np.int64)
        self.ge = np.empty(len(groups) + 1, dtype=np.int64)
        # Buffer addresses, read once (``ndarray.ctypes`` is slow).
        self.base = np.array(
            [a.ctypes.data for a in (
                self.indptr, self.indices, self.eweights, self.vweights,
                self.side, self.gv, self.ge,
            )],
            dtype=np.int64,
        )
        # Kernel output arguments: the CSR buffers, the gv/ge offsets.
        self.csr_out = tuple(self.base[:4].tolist())
        self.offsets_out = tuple(self.base[5:].tolist())

    def table(self, rows: np.ndarray) -> np.ndarray:
        """Kernel graph table of graphs ``rows``, side column filled."""
        tab = np.zeros((len(rows), TABLE_COLUMNS), dtype=np.int64)
        gv = self.gv[rows]
        tab[:, 0] = self.gv[rows + 1] - gv
        tab[:, 1] = gv + rows
        tab[:, 2] = tab[:, 3] = self.ge[rows]
        tab[:, 4] = tab[:, 5] = gv
        tab[:, 1:6] *= _ITEM
        tab[:, 1:6] += self.base[:5]
        return tab


def _caps(target: np.ndarray, totals: np.ndarray, ubfactor: float) -> np.ndarray:
    """Per-side weight caps of :func:`multilevel_bisection`, vectorized.

    ``min(max(floor(ub * t + 1e-9), t), total)``, computed as
    ``max(min(floor(...), total), t)`` (equal, since ``t <= total``) so
    the float is clipped before it becomes an integer.
    """
    cap = np.minimum(np.floor(ubfactor * target + 1e-9), totals.astype(np.float64))
    return np.maximum(cap.astype(np.int64), target)


def _bisect_level(
    graph: CSRGraph,
    ids: np.ndarray,
    gv: np.ndarray,
    nedges: int,
    target: np.ndarray,
    seeds: list[int],
    ubfactor: float,
) -> np.ndarray:
    """:func:`multilevel_bisection` of every group of one level.

    Group ``g`` is the vertex set ``ids[gv[g]:gv[g+1]]`` (ascending), to
    be split with ``target[g]`` weight on side 0 and seed ``seeds[g]``.
    ``nedges`` bounds the groups' total edge count.  Returns the sides,
    aligned with ``ids``.

    Raises:
        ValueError: ``ubfactor`` is not finite, or a target is not
            strictly between 0 and its group's weight.
    """
    if not math.isfinite(ubfactor):
        raise ValueError(f"ubfactor must be finite, got {ubfactor}")
    k = len(target)
    with span("subgraph", "metis", groups=k):
        base = _Union(len(ids), np.arange(k), nedges)
        stats = np.empty((k, 3), dtype=np.int64)
        check(_NATIVE.rb_extract(
            graph.nvertices, *graph.addresses(), ids.ctypes.data,
            gv.ctypes.data, k, *base.csr_out, base.offsets_out[1],
            stats.ctypes.data,
        ))
        base.gv[:] = gv
    totals = stats[:, 1]
    if not ((target > 0) & (target < totals)).all():
        raise ValueError("target_left must be strictly between 0 and total weight")
    cap_left = _caps(target, totals, ubfactor)
    cap_right = _caps(totals - target, totals, ubfactor)

    # Coarsening rounds: round r turns each still-coarsening group's
    # level-r graph into its level-(r+1) graph.  A group stops once its
    # graph has at most COARSEST_NVERTICES vertices, or when a round
    # shrinks it by less than 10% (that round's level is dropped).
    rounds = []
    nlevels = np.zeros(k, dtype=np.int64)
    with span("coarsen", "metis", groups=k):
        fine = base
        rows = np.flatnonzero(np.diff(gv) > COARSEST_NVERTICES)
        for lvl in range(MAX_LEVELS):
            if not len(rows):
                break
            groups = fine.groups[rows]
            fine_n = fine.gv[rows + 1] - fine.gv[rows]
            perm = Streams(
                [seeds[g] + lvl for g in groups.tolist()]
            ).permutations(fine_n)
            coarse = _Union(
                len(perm), groups, int((fine.ge[rows + 1] - fine.ge[rows]).sum())
            )
            f2c = np.empty(len(perm), dtype=np.int64)
            tab = fine.table(rows)
            check(_NATIVE.rb_coarsen(
                len(rows), tab.ctypes.data, perm.ctypes.data, f2c.ctypes.data,
                *coarse.csr_out, *coarse.offsets_out,
            ))
            nc = np.diff(coarse.gv)
            kept = ~(nc > 0.9 * fine_n)
            f2c_at = np.concatenate(([0], np.cumsum(fine_n)[:-1]))
            rounds.append((fine, rows, f2c, f2c_at, coarse, kept))
            nlevels[groups[kept]] += 1
            fine, rows = coarse, np.flatnonzero(kept & (nc > COARSEST_NVERTICES))

    with span("initial", "metis", groups=k):
        # Each group's coarsest graph: its base graph if it kept no
        # level, else the coarse graph of the last round it kept.
        coarsest = [(base, np.flatnonzero(nlevels == 0))]
        for r, (_, _, _, _, coarse, kept) in enumerate(rounds):
            coarsest.append(
                (coarse, np.flatnonzero(kept & (nlevels[coarse.groups] == r + 1)))
            )
        tab = np.concatenate([u.table(rows) for u, rows in coarsest])
        groups = np.concatenate([u.groups[rows] for u, rows in coarsest])
        starts = np.full((len(tab), NTRIALS), -1, dtype=np.int64)
        starts[:, 1:] = Streams([seeds[g] for g in groups.tolist()]).integers(
            tab[:, 0], NTRIALS - 1
        )
        targets = target[groups]
        check(_NATIVE.rb_initial(
            len(tab), tab.ctypes.data, targets.ctypes.data,
            starts.ctypes.data, NTRIALS, MAX_BOUND,
        ))
    with span("refine", "metis", groups=k):
        tab[:, 8] = cap_left[groups]
        tab[:, 9] = cap_right[groups]
        check(_NATIVE.rb_refine(len(tab), tab.ctypes.data, FM_PASSES, MAX_BOUND))
    # Uncoarsening, deepest level first: project every group that kept
    # round r's level from it to its level-r graph, then refine.
    with span("uncoarsen", "metis", groups=k):
        for fine, rows, f2c, f2c_at, coarse, kept in reversed(rounds):
            at = np.flatnonzero(kept)
            if not len(at):
                continue
            tab = fine.table(rows[at])
            tab[:, 6] = f2c.ctypes.data + _ITEM * f2c_at[at]
            tab[:, 7] = coarse.base[4] + _ITEM * coarse.gv[at]
            tab[:, 8] = cap_left[coarse.groups[at]]
            tab[:, 9] = cap_right[coarse.groups[at]]
            check(_NATIVE.rb_refine(len(tab), tab.ctypes.data, FM_PASSES, MAX_BOUND))
    return base.side
