"""Unit and property tests for the SFC partitioner (paper Sec. 3)."""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubesphere.curve import cubed_sphere_curve
from repro.graphs.csr import mesh_graph
from repro.graphs.traversal import is_connected
from repro.partition import sfc as sfc_module
from repro.partition.metrics import load_balance
from repro.partition.sfc import (
    cut_positions_uniform,
    cut_positions_weighted,
    keyed_cut,
    morton_partition,
    sfc_partition,
)

from tests.cubesphere.reference_curve import reference_cubed_sphere_curve

from .reference_sfc import partition_curve


def chunked(chunk: int | None):
    """Context in which every cut keys ``chunk`` elements per pass
    (``None``: the default chunk)."""
    if chunk is None:
        return nullcontext()
    return mock.patch.object(sfc_module, "DEFAULT_CHUNK", chunk)


class TestUniformCuts:
    def test_exact_division(self):
        bounds = cut_positions_uniform(12, 4)
        assert bounds.tolist() == [0, 3, 6, 9, 12]

    def test_remainder_goes_to_early_segments(self):
        bounds = cut_positions_uniform(10, 4)
        assert np.diff(bounds).tolist() == [3, 3, 2, 2]

    def test_single_part(self):
        assert cut_positions_uniform(7, 1).tolist() == [0, 7]

    def test_errors(self):
        with pytest.raises(ValueError):
            cut_positions_uniform(4, 0)
        with pytest.raises(ValueError):
            cut_positions_uniform(4, 5)

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_sizes_differ_by_at_most_one(self, ncells, nparts):
        if nparts > ncells:
            return
        sizes = np.diff(cut_positions_uniform(ncells, nparts))
        assert sizes.sum() == ncells
        assert sizes.max() - sizes.min() <= 1
        assert sizes.min() >= 1


class TestWeightedCuts:
    def test_uniform_weights_match_uniform_cuts(self):
        w = np.ones(12)
        assert cut_positions_weighted(w, 4).tolist() == [0, 3, 6, 9, 12]

    def test_heavy_cell_isolated(self):
        w = np.array([1.0, 1.0, 100.0, 1.0, 1.0])
        bounds = cut_positions_weighted(w, 3)
        sizes = np.diff(bounds)
        assert sizes.sum() == 5
        # The heavy cell's segment should not also absorb everything else.
        loads = [w[bounds[i] : bounds[i + 1]].sum() for i in range(3)]
        assert max(loads) == 100.0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            cut_positions_weighted(np.array([1.0, 0.0]), 2)

    def test_non_finite_weights_rejected(self):
        """A NaN weight, or finite weights whose total overflows, used
        to yield a lopsided 1/1/1/21 cut; the one weight gate refuses
        both."""
        with pytest.raises(ValueError, match="finite; entry 0"):
            sfc_partition(2, 4, weights=[np.nan] + [1.0] * 23)
        with pytest.raises(ValueError, match="finite total"):
            sfc_partition(2, 4, weights=[1e308] * 23 + [1.0])
        with pytest.raises(ValueError, match="finite total"):
            cut_positions_weighted(np.array([1e308, 1e308, 1.0]), 2)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=10), min_size=2, max_size=60),
        st.integers(1, 20),
    )
    def test_segments_nonempty(self, weights, nparts):
        w = np.array(weights)
        if nparts > len(w):
            return
        bounds = cut_positions_weighted(w, nparts)
        assert (np.diff(bounds) >= 1).all()
        assert bounds[0] == 0 and bounds[-1] == len(w)


class TestSFCPartition:
    @pytest.mark.parametrize("nparts", [1, 2, 6, 16, 24, 96])
    def test_perfect_balance_when_divisible(self, nparts):
        p = sfc_partition(4, nparts)
        assert load_balance(p.part_sizes()) == 0.0
        p.validate()

    def test_non_divisible_near_balance(self):
        p = sfc_partition(4, 7)  # 96 / 7
        sizes = p.part_sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_parts_contiguous_along_curve(self):
        curve = cubed_sphere_curve(4)
        p = partition_curve(curve, 12)
        along = p.assignment[curve.order]
        # Part ids along the curve are non-decreasing.
        assert (np.diff(along) >= 0).all()

    def test_parts_are_connected_subgraphs(self, mesh4):
        """Curve contiguity implies each processor's elements form a
        connected patch — the locality property SFC partitioning buys."""
        g = mesh_graph(mesh4, corner_weight=1)
        p = sfc_partition(4, 12)
        for part in range(12):
            sub, _ = g.subgraph(p.members(part))
            assert is_connected(sub)

    def test_weighted_partition_balances_weight(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.5, 2.0, size=96)
        p = sfc_partition(4, 8, weights=w)
        loads = np.array([w[p.members(i)].sum() for i in range(8)])
        ideal = w.sum() / 8
        assert loads.max() < 2.0 * ideal

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="one entry per element"):
            sfc_partition(4, 4, weights=np.ones(5))

    def test_custom_schedule(self):
        a = sfc_partition(6, 9, schedule="PH")
        b = sfc_partition(6, 9, schedule="HP")
        assert not np.array_equal(a.assignment, b.assignment)
        for p in (a, b):
            assert load_balance(p.part_sizes()) == 0.0

    def test_method_label(self):
        assert sfc_partition(2, 4).method == "sfc"


class TestKeyedCut:
    """The streaming key path is bit-identical to cutting the curve."""

    @pytest.mark.parametrize("ne,nparts", [(2, 4), (4, 7), (6, 9), (12, 30)])
    def test_keyed_equals_materialized(self, ne, nparts):
        keyed = sfc_partition(ne, nparts)
        golden = partition_curve(reference_cubed_sphere_curve(ne), nparts)
        np.testing.assert_array_equal(keyed.assignment, golden.assignment)

    @pytest.mark.parametrize("chunk", [1, 7, 100, 10**9])
    def test_chunk_size_never_changes_the_cut(self, chunk):
        whole = sfc_partition(6, 9)
        with chunked(chunk):
            part = sfc_partition(6, 9)
        np.testing.assert_array_equal(part.assignment, whole.assignment)

    def test_weighted_keyed_equals_materialized(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.5, 2.0, size=96)
        with chunked(13):
            keyed = sfc_partition(4, 8, weights=w)
        golden = partition_curve(reference_cubed_sphere_curve(4), 8, weights=w)
        np.testing.assert_array_equal(keyed.assignment, golden.assignment)

    def test_schedule_flows_through_key_path(self):
        keyed = sfc_partition(6, 8, schedule="HP")
        golden = partition_curve(reference_cubed_sphere_curve(6, "HP"), 8)
        np.testing.assert_array_equal(keyed.assignment, golden.assignment)

    def test_inadmissible_ne_rejected_before_work(self):
        with pytest.raises(ValueError):
            sfc_partition(5, 2)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7, 96, 1000])
    def test_one_key_pass(self, weighted, chunk):
        """Each element is keyed once, with or without weights."""
        from repro.cubesphere.curve import element_keys

        calls = []

        def key_fn(ids):
            calls.append(len(ids))
            return element_keys(4, gids=ids)

        w = np.random.default_rng(3).uniform(0.5, 2.0, 96) if weighted else None
        with chunked(chunk):
            part = keyed_cut(key_fn, 96, 8, weights=w)
        assert len(calls) == -(-96 // chunk) and sum(calls) == 96
        np.testing.assert_array_equal(
            part.assignment, sfc_partition(4, 8, weights=w).assignment
        )


class TestMortonPartition:
    def test_balanced_and_valid(self):
        p = morton_partition(4, 8)
        assert p.method == "morton"
        sizes = p.part_sizes()
        assert sizes.max() - sizes.min() <= 1
        p.validate()

    @pytest.mark.parametrize("chunk", [1, 11, None])
    def test_chunk_invariant(self, chunk):
        with chunked(chunk):
            part = morton_partition(4, 7)
        np.testing.assert_array_equal(
            part.assignment, morton_partition(4, 7).assignment
        )

    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="2\\^n"):
            morton_partition(12, 4)

    def test_differs_from_sfc(self):
        # Z-order jumps; the continuous Hilbert cut is a different map.
        assert not np.array_equal(
            morton_partition(4, 8).assignment,
            sfc_partition(4, 8).assignment,
        )
