"""Golden tests: the flat rank-segmented PartitionedDSS equals the
rank-by-rank reference (``tests/seam/reference_parallel.py``) bit for bit.

Same projected field, same assembled mass, same slot layout and the
same message accounting, across partitioners and degenerate rank
counts, including the benchmark's Ne=16 / np=8 / 96-rank configuration.
Floats are
compared as their int64 bit patterns, so signed zeros count.
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


def _metis(method):
    def make(ne, nranks):
        return part_graph(mesh_graph(cubed_sphere_mesh(ne)), nranks, method, seed=0)

    return make


_kway = _metis("kway")


def _empty_last(ne, nranks):
    # Rank nranks-1 owns nothing.
    nelem = 6 * ne * ne
    return Partition(np.arange(nelem) * (nranks - 1) // nelem, nparts=nranks)


def _empty_middle(ne, nranks):
    # Rank 1 owns nothing; ranks 0 and 2.. split the elements.
    nelem = 6 * ne * ne
    a = np.arange(nelem) * (nranks - 1) // nelem
    return Partition(np.where(a >= 1, a + 1, a), nparts=nranks)


def _empty_first(ne, nranks):
    # Rank 0 owns nothing.
    nelem = 6 * ne * ne
    return Partition(1 + np.arange(nelem) * (nranks - 1) // nelem, nparts=nranks)


def _odd_ranks_empty(ne, nranks):
    # Only even ranks own elements: every other rank id is a gap.
    nelem = 6 * ne * ne
    half = (nranks + 1) // 2
    return Partition(2 * (np.arange(nelem) * half // nelem), nparts=nranks)


def _single(ne, nranks):
    return Partition(np.zeros(6 * ne * ne, dtype=np.int64), nparts=1)


def _one_per_rank(ne, nranks):
    return Partition(np.arange(6 * ne * ne), nparts=6 * ne * ne)


def _shuffled(ne, nranks):
    # Non-contiguous ranks: every rank touches points all over the grid.
    rng = np.random.default_rng(3)
    return Partition(rng.integers(0, nranks, 6 * ne * ne), nparts=nranks)


CASES = [
    ((3, 5, _sfc, 6), "sfc-ne3-np5-6"),
    ((3, 5, _kway, 9), "kway-ne3-np5-9"),
    ((3, 4, _empty_last, 4), "empty-last-rank"),
    ((3, 4, _empty_middle, 5), "empty-middle-rank"),
    ((3, 4, _single, 1), "single-rank"),
    ((2, 4, _one_per_rank, 24), "nranks-eq-nelem"),
    ((4, 3, _shuffled, 7), "shuffled-ne4-np3-7"),
    ((16, 8, _sfc, 96), "benchmark-ne16-np8-96"),
    ((4, 4, _metis("rb"), 10), "rb-ne4-np4-10"),
    ((4, 4, _metis("tv"), 12), "tv-ne4-np4-12"),
    ((6, 4, _sfc, 24), "sfc-ne6-np4-24"),
    ((3, 2, _sfc, 6), "corner-points-only-np2"),
    ((3, 4, _empty_first, 4), "empty-first-rank"),
    ((3, 4, _odd_ranks_empty, 8), "odd-ranks-empty"),
    ((3, 6, _shuffled, 2), "two-ranks-np6"),
    ((16, 8, _sfc, 384), "paper-ne16-np8-384"),
]


@pytest.fixture(scope="module", params=[c for c, _ in CASES], ids=[n for _, n in CASES])
def pair(request):
    ne, npts, make, nranks = request.param
    geom = build_geometry(ne, npts)
    partition = make(ne, nranks)
    pmap = build_point_map(ne, npts)
    return (
        RankByRankDSS(geom, partition, pmap),
        PartitionedDSS(geom, partition, pmap),
    )


def _bits(a: np.ndarray) -> np.ndarray:
    assert a.dtype == np.float64
    return a.view(np.int64)


def _fields(shape):
    """Random normals, then the fields whose bits are easy to get wrong."""
    rng = np.random.default_rng(11)
    yield from (rng.standard_normal(shape) for _ in range(APPLIES))
    yield np.where(rng.random(shape) < 0.5, -0.0, 0.0)  # ±0.0
    yield -np.zeros(shape)
    yield rng.standard_normal(shape).astype(np.float32)
    yield rng.integers(-5, 6, shape)


class TestFlatEqualsRankByRank:
    def test_slot_layout_is_concatenated_rank_points(self, pair):
        ref, flat = pair
        assert np.array_equal(np.concatenate(ref.rank_points), flat.slot_point)
        sizes = [len(p) for p in ref.rank_points]
        assert np.array_equal(np.diff(flat.offsets), sizes)

    def test_assembled_mass_bitwise(self, pair):
        ref, flat = pair
        assert np.array_equal(_bits(np.concatenate(ref.rank_mass)), _bits(flat.mass))

    def test_apply_bitwise_and_accounting(self, pair):
        ref, flat = pair
        a, b = ref.accounting, flat.accounting
        before = (b.exchanges, b.messages, b.values, b.per_rank_sent.copy())
        napplies = 0
        for q in _fields(ref.local_mass.shape):
            got = flat.apply(q)
            assert got.shape == q.shape
            # The oracle keeps the input dtype; the operator works in
            # float64, into which float32 and small ints cast exactly.
            want = ref.apply(q.astype(np.float64))
            assert np.array_equal(_bits(got), _bits(want)), q.dtype
            napplies += 1
        assert (a.exchanges, a.messages, a.values) == (
            b.exchanges - before[0],
            b.messages - before[1],
            b.values - before[2],
        )
        assert a.exchanges == napplies
        assert np.array_equal(a.per_rank_sent, b.per_rank_sent - before[3])

    def test_wrong_shape_raises(self, pair):
        _, flat = pair
        shape = flat.local_mass.shape
        exchanges = flat.accounting.exchanges
        for bad in (shape[1:], (shape[0] - 1, *shape[1:]), (1, *shape)):
            with pytest.raises(ValueError, match="field shape"):
                flat.apply(np.zeros(bad))
        with pytest.raises(ValueError, match="field shape"):
            flat.apply(np.zeros(shape).ravel())
        assert flat.accounting.exchanges == exchanges

    def test_complex_field_raises(self, pair):
        _, flat = pair
        with pytest.raises(TypeError, match="complex128"):
            flat.apply(np.ones(flat.local_mass.shape, dtype=complex))

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
        pdss = PartitionedDSS(build_geometry(3, 4), sfc_partition(3, 6))
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
