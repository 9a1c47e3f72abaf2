"""Golden tests: the flat rank-segmented PartitionedDSS equals the
rank-by-rank reference (``tests/seam/reference_parallel.py``) bit for bit.

Same projected field, same assembled mass, same slot layout and the
same message accounting, across partitioners and degenerate rank
counts, including the benchmark's Ne=16 / np=8 / 96-rank configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubesphere import cubed_sphere_mesh
from repro.graphs import mesh_graph
from repro.metis import part_graph
from repro.partition import Partition, sfc_partition
from repro.seam import PartitionedDSS, build_geometry, build_point_map

from .reference_parallel import RankByRankDSS

APPLIES = 3


def _sfc(ne, nranks):
    return sfc_partition(ne, nranks)


def _kway(ne, nranks):
    return part_graph(mesh_graph(cubed_sphere_mesh(ne)), nranks, "kway", seed=0)


def _empty_last(ne, nranks):
    # Rank nranks-1 owns nothing.
    nelem = 6 * ne * ne
    return Partition(np.arange(nelem) * (nranks - 1) // nelem, nparts=nranks)


def _empty_middle(ne, nranks):
    # Rank 1 owns nothing; ranks 0 and 2.. split the elements.
    nelem = 6 * ne * ne
    a = np.arange(nelem) * (nranks - 1) // nelem
    return Partition(np.where(a >= 1, a + 1, a), nparts=nranks)


def _single(ne, nranks):
    return Partition(np.zeros(6 * ne * ne, dtype=np.int64), nparts=1)


def _one_per_rank(ne, nranks):
    return Partition(np.arange(6 * ne * ne), nparts=6 * ne * ne)


def _shuffled(ne, nranks):
    # Non-contiguous ranks: every rank touches points all over the grid.
    rng = np.random.default_rng(3)
    return Partition(rng.integers(0, nranks, 6 * ne * ne), nparts=nranks)


CASES = [
    pytest.param((3, 5, _sfc, 6), id="sfc-ne3-np5-6"),
    pytest.param((3, 5, _kway, 9), id="kway-ne3-np5-9"),
    pytest.param((3, 4, _empty_last, 4), id="empty-last-rank"),
    pytest.param((3, 4, _empty_middle, 5), id="empty-middle-rank"),
    pytest.param((3, 4, _single, 1), id="single-rank"),
    pytest.param((2, 4, _one_per_rank, 24), id="nranks-eq-nelem"),
    pytest.param((4, 3, _shuffled, 7), id="shuffled-ne4-np3-7"),
    pytest.param((16, 8, _sfc, 96), id="benchmark-ne16-np8-96"),
]


@pytest.fixture(scope="module", params=CASES)
def pair(request):
    ne, npts, make, nranks = request.param
    geom = build_geometry(ne, npts)
    partition = make(ne, nranks)
    pmap = build_point_map(geom)
    return RankByRankDSS(geom, partition, pmap), PartitionedDSS(geom, partition, pmap)


class TestFlatEqualsRankByRank:
    def test_slot_layout_is_concatenated_rank_points(self, pair):
        ref, flat = pair
        assert np.array_equal(np.concatenate(ref.rank_points), flat.slot_point)
        sizes = [len(p) for p in ref.rank_points]
        assert np.array_equal(np.diff(flat.offsets), sizes)

    def test_assembled_mass_bitwise(self, pair):
        ref, flat = pair
        assert np.array_equal(np.concatenate(ref.rank_mass), flat.mass)

    def test_apply_bitwise_and_accounting(self, pair):
        ref, flat = pair
        rng = np.random.default_rng(11)
        for _ in range(APPLIES):
            q = rng.standard_normal(ref.local_mass.shape)
            assert np.array_equal(flat.apply(q), ref.apply(q))
        a, b = ref.accounting, flat.accounting
        assert (a.exchanges, a.messages, a.values) == (
            b.exchanges,
            b.messages,
            b.values,
        )
        assert a.exchanges == APPLIES
        assert np.array_equal(a.per_rank_sent, b.per_rank_sent)

    def test_messages_are_the_shared_lists(self, pair):
        """The outbox is the (src, dst, point)-ordered shared lists."""
        ref, flat = pair
        src_rank = flat.slot_rank[flat.msg_src]
        dst_rank = flat.slot_rank[flat.msg_dst]
        point = flat.slot_point[flat.msg_src]
        assert np.array_equal(point, flat.slot_point[flat.msg_dst])
        expected = [
            (s, d, p) for (s, d), pts in ref.shared.items() for p in pts.tolist()
        ]
        got = list(zip(src_rank.tolist(), dst_rank.tolist(), point.tolist()))
        assert got == expected


class TestExchangeHook:
    """The halo exchange goes through the instance's ``_exchange_into``."""

    def test_one_exchange_call_per_apply(self):
        geom = build_geometry(3, 4)
        pdss = PartitionedDSS(geom, sfc_partition(3, 6))
        assert pdss.accounting.exchanges == 0  # mass completion is uncounted
        calls = []
        inner = pdss._exchange_into

        def wrapped(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        pdss._exchange_into = wrapped
        q = np.random.default_rng(0).standard_normal(pdss.local_mass.shape)
        pdss.apply(q)
        pdss.apply(q)
        assert len(calls) == 2
        assert pdss.accounting.exchanges == 2
