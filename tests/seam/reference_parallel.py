"""Rank-by-rank reference for :class:`repro.seam.PartitionedDSS`.

The partitioned DSS used to keep one partial-sum array per rank and
complete shared points with one Python loop over ranks and one over
ordered rank pairs (``shared[(src, dst)]`` message layouts).  The flat
rank-segmented implementation in ``repro.seam.parallel`` must reproduce
it bit for bit; this copy exists only as that oracle
(``tests/seam/test_parallel_golden.py``).
"""

from __future__ import annotations

import numpy as np

from repro.partition.base import Partition
from repro.seam.dss import PointMap, build_point_map
from repro.seam.element import GridGeometry
from repro.seam.parallel import ExchangeAccounting


class RankByRankDSS:
    """Partitioned DSS executed rank-by-rank, one Python loop per rank
    and per rank pair (the pre-flat-buffer implementation).

    Each rank holds partial J-weighted sums for the global points its
    elements touch; shared points are completed by explicit messages
    between the ranks that co-own them (determined once, from the
    point map and the partition).

    Args:
        geom: Grid geometry.
        partition: Element-to-rank assignment.
        point_map: Optional pre-built global point identification.
    """

    def __init__(
        self,
        geom: GridGeometry,
        partition: Partition,
        point_map: PointMap | None = None,
    ):
        if partition.nvertices != geom.nelem:
            raise ValueError("partition does not match the grid")
        self.geom = geom
        self.partition = partition
        self.point_map = point_map if point_map is not None else build_point_map(geom.mesh.ne, geom.npts)
        self.nranks = partition.nparts
        self.local_mass = geom.local_mass
        self._build_rank_structures()
        self.accounting = ExchangeAccounting(nranks=self.nranks)

    def _build_rank_structures(self) -> None:
        ids = self.point_map.point_ids
        owner = self.partition.assignment
        # Points touched by each rank (sort + run-mask dedup).
        self.rank_elements = [
            np.flatnonzero(owner == r) for r in range(self.nranks)
        ]
        rank_points: list[np.ndarray] = []
        for r in range(self.nranks):
            touched = np.sort(ids[self.rank_elements[r]].ravel())
            rank_points.append(
                touched[np.r_[True, touched[1:] != touched[:-1]]]
                if len(touched)
                else touched
            )
        self.rank_points = rank_points
        # Every element-local point's dense local id on its owning rank,
        # one flat index array per rank.  These drive both gather
        # (weighted np.bincount, which accumulates in index order — the
        # same element-by-element order as the historical np.add.at and
        # per-element loop, so float sums are bit-identical) and scatter.
        self._rank_idx = [
            np.searchsorted(rank_points[r], ids[self.rank_elements[r]].ravel())
            for r in range(self.nranks)
        ]
        self._build_shared_lists()
        # Precompute each rank's assembled mass (numerically identical
        # on every co-owning rank after exchange).
        self.rank_mass = []
        for r in range(self.nranks):
            m = self._gather_rank(r, self.local_mass)
            self.rank_mass.append(m)
        # Complete the mass with one exchange (not counted in stats).
        self._exchange_into(self.rank_mass, count=False)

    def _build_shared_lists(self) -> None:
        """Shared-point message layouts for every ordered rank pair.

        ``shared[(src, dst)]`` is the ascending list of global points
        co-owned by both ranks — the layout both sides agree on (like an
        MPI datatype) — with the matching local-index arrays precomputed
        on each side.  Built with the same run-length grouping and
        size-class pair expansion as the halo schedule kernel.
        """
        pnt = np.concatenate(self.rank_points + [np.empty(0, dtype=np.int64)])
        rnk = np.concatenate(
            [
                np.full(len(p), r, dtype=np.int64)
                for r, p in enumerate(self.rank_points)
            ]
            + [np.empty(0, dtype=np.int64)]
        )
        order = np.argsort(pnt, kind="stable")  # ranks ascend within a point
        pnt = pnt[order]
        rnk = rnk[order]
        starts = np.flatnonzero(np.r_[True, pnt[1:] != pnt[:-1]]) if len(pnt) else (
            np.empty(0, dtype=np.int64)
        )
        counts = np.diff(np.r_[starts, len(pnt)])
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        pts_out: list[np.ndarray] = []
        for size in np.unique(counts).tolist():
            if size < 2:
                continue
            group_starts = starts[counts == size]
            members = rnk[group_starts[:, None] + np.arange(size)]
            a = np.repeat(members, size, axis=1)
            b = np.tile(members, (1, size))
            offdiag = a != b
            srcs.append(a[offdiag])
            dsts.append(b[offdiag])
            pts_out.append(np.repeat(pnt[group_starts], size * size - size))
        self.shared: dict[tuple[int, int], np.ndarray] = {}
        self._shared_src_idx: dict[tuple[int, int], np.ndarray] = {}
        self._shared_dst_idx: dict[tuple[int, int], np.ndarray] = {}
        if not srcs:
            return
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        pts = np.concatenate(pts_out)
        pair_key = src * np.int64(self.nranks) + dst
        by_pair = np.lexsort((pts, pair_key))
        pair_key = pair_key[by_pair]
        pts = pts[by_pair]
        run_starts = np.flatnonzero(np.r_[True, pair_key[1:] != pair_key[:-1]])
        run_ends = np.r_[run_starts[1:], len(pair_key)]
        for lo, hi in zip(run_starts.tolist(), run_ends.tolist()):
            a, b = divmod(int(pair_key[lo]), self.nranks)
            plist = pts[lo:hi]
            self.shared[(a, b)] = plist
            self._shared_src_idx[(a, b)] = np.searchsorted(
                self.rank_points[a], plist
            )
            self._shared_dst_idx[(a, b)] = np.searchsorted(
                self.rank_points[b], plist
            )

    def _gather_rank(self, rank: int, field_: np.ndarray) -> np.ndarray:
        """Rank-local partial sums of a per-element point field."""
        return np.bincount(
            self._rank_idx[rank],
            weights=field_[self.rank_elements[rank]].ravel(),
            minlength=len(self.rank_points[rank]),
        )

    def _exchange_into(self, partials: list[np.ndarray], count: bool = True) -> None:
        """Add every rank's shared-point partials into its neighbors."""
        # Snapshot the outgoing values first (BSP semantics: all sends
        # read the pre-exchange state).
        outbox: dict[tuple[int, int], np.ndarray] = {}
        for (src, dst), pts in self.shared.items():
            outbox[(src, dst)] = partials[src][self._shared_src_idx[(src, dst)]]
            if count:
                self.accounting.messages += 1
                self.accounting.values += len(pts)
                self.accounting.per_rank_sent[src] += len(pts)
        for (src, dst), payload in outbox.items():
            partials[dst][self._shared_dst_idx[(src, dst)]] += payload
        if count:
            self.accounting.exchanges += 1

    def apply(self, field_: np.ndarray) -> np.ndarray:
        """Partitioned DSS projection of an element-wise field.

        Numerically equal to :meth:`repro.seam.dss.DSSOperator.apply`
        up to floating-point summation order (tested to 1e-12).
        """
        weighted = self.local_mass * field_
        partials = [self._gather_rank(r, weighted) for r in range(self.nranks)]
        self._exchange_into(partials)
        out = np.empty_like(field_)
        for r in range(self.nranks):
            elems = self.rank_elements[r]
            if not len(elems):
                continue
            averaged = partials[r] / self.rank_mass[r]
            out[elems] = averaged[self._rank_idx[r]].reshape(
                len(elems), *field_.shape[1:]
            )
        return out
