"""Edge-case and failure-injection tests across subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubesphere import cubed_sphere_curve, cubed_sphere_mesh, refine_uniform
from repro.graphs import mesh_graph
from repro.partition import Partition, evaluate_partition, sfc_partition
from repro.seam import PartitionedDSS, build_geometry


class TestEmptyRanks:
    """METIS-4-style empty parts must flow through every consumer."""

    @pytest.fixture(scope="class")
    def partition_with_empty_rank(self):
        # Rank 3 of 4 owns nothing.
        assignment = np.repeat([0, 1, 2], 18)
        return Partition(assignment, nparts=4)

    def test_metrics_handle_empty_parts(self, partition_with_empty_rank):
        g = mesh_graph(cubed_sphere_mesh(3))
        q = evaluate_partition(g, partition_with_empty_rank)
        assert q.nelemd[3] == 0
        assert q.spcv[3] == 0
        assert 0 <= q.lb_nelemd < 1

    def test_perf_model_idles_empty_ranks(self, partition_with_empty_rank):
        from repro.machine import PerformanceModel

        t = PerformanceModel().step_timing(partition_with_empty_rank)
        assert t.compute_s[3] == 0.0
        assert t.comm_s[3] == 0.0

    def test_partitioned_dss_with_empty_rank(self, partition_with_empty_rank):
        geom = build_geometry(3, 4)
        pdss = PartitionedDSS(geom, partition_with_empty_rank)
        rng = np.random.default_rng(0)
        q = rng.standard_normal(pdss.local_mass.shape)
        from repro.seam import DSSOperator

        serial = DSSOperator(geom).apply(q)
        np.testing.assert_allclose(pdss.apply(q), serial, atol=1e-12)
        assert pdss.accounting.per_rank_sent[3] == 0

    def test_trace_with_empty_rank(self, partition_with_empty_rank):
        from repro.machine import PerformanceModel, trace_step

        tr = trace_step(PerformanceModel(), partition_with_empty_rank)
        assert tr.segments[3].total_s == 0.0
        assert not tr.segments[3].critical


class TestDegenerateSizes:
    def test_single_element_per_face(self):
        """ne=1: the minimal cubed-sphere still works end-to-end."""
        curve = cubed_sphere_curve(1)
        g = mesh_graph(curve.mesh)
        for nparts in (1, 2, 3, 6):
            p = sfc_partition(1, nparts)
            q = evaluate_partition(g, p)
            assert q.nelemd.sum() == 6

    def test_nparts_equals_nelements(self):
        p = sfc_partition(2, 24)
        assert (p.part_sizes() == 1).all()

    def test_refinement_coarsen_below_zero_rejected(self):
        rm = refine_uniform(cubed_sphere_curve(2))
        with pytest.raises(ValueError, match="levels must be in"):
            rm.refined(np.array([0]), delta=-1)

    def test_single_part_everything(self):
        g = mesh_graph(cubed_sphere_mesh(2))
        p = sfc_partition(2, 1)
        q = evaluate_partition(g, p)
        assert q.edgecut == 0
        assert q.total_volume_points == 0
        assert q.lb_nelemd == 0.0


class TestAdversarialInputs:
    def test_metis_on_star_graph(self):
        """A star (hub + leaves) stresses the matching (hub can match
        only once) and balance (hub weight dominates nothing here but
        every cut goes through the hub)."""
        from repro.graphs import graph_from_edges
        from repro.metis import part_graph

        n = 33
        edges = np.array([(0, i) for i in range(1, n)])
        g = graph_from_edges(n, edges)
        p = part_graph(g, 4, "rb", seed=0)
        sizes = p.part_sizes()
        assert sizes.sum() == n
        assert sizes.max() <= 10

    def test_metis_on_two_scales(self):
        """Vertex weights spanning two orders of magnitude."""
        from repro.graphs import graph_from_edges
        from repro.metis import part_graph

        n = 24
        edges = np.array([(i, i + 1) for i in range(n - 1)])
        vw = np.ones(n, dtype=np.int64)
        vw[::6] = 50
        g = graph_from_edges(n, edges, vweights=vw)
        p = part_graph(g, 4, "rb", seed=0)
        weights = p.part_weights(g.vweights)
        # Heavy vertices are atomic: the best possible max is >= 54.
        assert weights.max() <= 2 * weights.mean()

    def test_sfc_weighted_extreme_skew(self):
        """One element carries 100x the work: it must sit alone-ish."""
        w = np.ones(96)
        w[40] = 100.0
        p = sfc_partition(4, 8, weights=w)
        loads = np.array([w[p.members(i)].sum() for i in range(8)])
        heavy_part = int(p.assignment[40])
        # The heavy part should carry little besides the heavy element.
        assert loads[heavy_part] <= 100.0 + 12
