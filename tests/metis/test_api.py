"""Unit tests for the METIS-style public API."""

from __future__ import annotations

import numpy as np
import pytest

from repro._native import MAX_BOUND, check
from repro.graphs import graph_from_edges
from repro.metis.api import METIS_METHODS, part_graph
from repro.metis.coarsen import contract
from repro.metis.initial import greedy_graph_growing
from repro.metis.refine import fm_refine_bisection
from repro.partition.metrics import evaluate_partition, load_balance


class TestPartGraph:
    @pytest.mark.parametrize("method", METIS_METHODS)
    def test_all_methods_produce_partitions(self, graph4, method):
        p = part_graph(graph4, 12, method, seed=0)
        assert p.nparts == 12
        assert p.method == method

    def test_unknown_method(self, graph4):
        with pytest.raises(ValueError, match="unknown method"):
            part_graph(graph4, 4, "magic")

    def test_rb_never_empty(self, graph8):
        for nparts in (96, 192, 384):
            p = part_graph(graph8, nparts, "rb", seed=0)
            assert (p.part_sizes() > 0).all()

    def test_kway_may_leave_empty_parts_at_saturation(self, graph8):
        """METIS-4 behaviour: at nparts == nvertices the K-way pipeline
        may merge singleton parts (the paper's load-imbalance source)."""
        p = part_graph(graph8, 384, "kway", seed=0)
        sizes = p.part_sizes()
        assert sizes.sum() == 384
        # Either perfect or showing the characteristic 2-and-0 pattern.
        assert sizes.max() in (1, 2)

    def test_explicit_ubfactor_overrides_default(self, graph8):
        strict = part_graph(graph8, 192, "rb", ubfactor=1.001, seed=0)
        assert load_balance(strict.part_sizes()) == 0.0

    def test_quality_ordering_table2(self, graph8):
        """KWAY trades balance for cut relative to RB (Table 2 shape)."""
        rb = evaluate_partition(graph8, part_graph(graph8, 96, "rb", seed=0))
        kw = evaluate_partition(graph8, part_graph(graph8, 96, "kway", seed=0))
        assert kw.weighted_edgecut <= rb.weighted_edgecut
        assert kw.lb_nelemd >= rb.lb_nelemd


class TestKernelErrors:
    """A kernel's negative return code surfaces as an exception."""

    #: Two vertices joined by one edge whose weight exceeds MAX_BOUND.
    HEAVY = graph_from_edges(2, np.array([[0, 1]]), np.array([2**23]))

    def test_fm_gain_bound(self):
        with pytest.raises(ValueError, match=f"MAX_BOUND = {MAX_BOUND}"):
            fm_refine_bisection(self.HEAVY, np.array([0, 1]), 1, 1)

    def test_ggg_gain_bound(self):
        with pytest.raises(ValueError, match=f"MAX_BOUND = {MAX_BOUND}"):
            greedy_graph_growing(self.HEAVY, 1)

    def test_rb_gain_bound(self):
        with pytest.raises(ValueError, match=f"MAX_BOUND = {MAX_BOUND}"):
            part_graph(self.HEAVY, 2, "rb")

    def test_subgraph_ids_not_ascending(self, graph4):
        with pytest.raises(ValueError, match="strictly ascending"):
            graph4.subgraph(np.array([2, 1]))
        with pytest.raises(ValueError, match="strictly ascending"):
            graph4.subgraph(np.array([1, 1]))

    def test_contract_bad_match(self, graph4):
        n = graph4.nvertices
        with pytest.raises(ValueError, match="must lie in"):
            contract(graph4, np.full(n, n))
        with pytest.raises(ValueError, match="must lie in"):
            contract(graph4, np.full(n, -1))
        with pytest.raises(ValueError, match="shape"):
            contract(graph4, np.arange(n - 1))

    def test_error_codes(self):
        assert check(5) == 5
        with pytest.raises(MemoryError):
            check(-1)
