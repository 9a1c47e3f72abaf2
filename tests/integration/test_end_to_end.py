"""Integration tests: full pipelines across all subsystems.

These tests tie the reproduction together: mesh → curve → partition →
exchange schedule → machine model, and the solver-level check that a
partitioned DSS (explicit per-rank partial sums + scheduled exchanges)
reproduces the serial DSS bit-for-bit up to summation order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubesphere import cubed_sphere_mesh
from repro.graphs import is_connected, mesh_graph
from repro.partition import sfc_partition
from repro.seam import (
    DSSOperator,
    PartitionedDSS,
    build_geometry,
    build_halo_schedule,
    build_point_map,
)


class TestPartitionedDSS:
    """A rank-by-rank DSS with explicit exchanges equals serial DSS."""

    def test_partitioned_equals_serial(self):
        geom = build_geometry(4, 6)
        pmap = build_point_map(4, 6)
        dss = DSSOperator(geom, pmap)
        rng = np.random.default_rng(7)
        q = rng.standard_normal(dss.local_mass.shape)
        serial = dss.apply(q)

        part = sfc_partition(4, 12)
        nparts = 12
        ids = pmap.point_ids
        weighted = dss.local_mass * q
        # Per-rank partial numerator/denominator over local elements.
        num_partial = np.zeros((nparts, pmap.npoints))
        den_partial = np.zeros((nparts, pmap.npoints))
        for e in range(geom.mesh.nelem):
            r = int(part.assignment[e])
            np.add.at(num_partial[r], ids[e].ravel(), weighted[e].ravel())
            np.add.at(den_partial[r], ids[e].ravel(), dss.local_mass[e].ravel())
        # "Exchange": every rank receives every other rank's partials
        # for the points it owns (the schedule says which ranks talk).
        sched = build_halo_schedule(pmap, part)
        result = np.empty_like(q)
        for e in range(geom.mesh.nelem):
            r = int(part.assignment[e])
            num = num_partial[r].copy()
            den = den_partial[r].copy()
            for (src, dst), _count in sched.items():
                if dst == r:
                    num += num_partial[src]
                    den += den_partial[src]
            local_ids = ids[e]
            with np.errstate(invalid="ignore"):
                vals = num[local_ids] / den[local_ids]
            result[e] = vals
        np.testing.assert_allclose(result, serial, atol=1e-12)

    @pytest.mark.parametrize(
        "method, ne, nparts",
        [
            *((m, 4, 48) for m in ("sfc", "rb", "kway")),
            *((m, 16, 96) for m in ("sfc", "rb", "kway")),
            ("empty-rank", 4, 48),
        ],
    )
    def test_model_charges_what_seam_sends(self, method, ne, nparts):
        """The simulator prices the messages one partitioned DSS sends:
        the same points per rank, the same messages, and each message
        priced on the link between its two ranks."""
        from repro.machine import PerformanceModel
        from repro.partition import Partition, partition_stage

        model = PerformanceModel()
        npts = model.cost.npts
        if method == "empty-rank":  # rank 47 owns nothing
            part = Partition(np.arange(6 * ne * ne) % (nparts - 1), nparts)
        else:
            part = partition_stage(method, ne, nparts)
        pdss = PartitionedDSS(build_geometry(ne, npts), part, build_point_map(ne, npts))
        pdss.apply(np.ones(pdss.local_mass.shape))
        acct = pdss.accounting

        sched = model.halo_schedule(part)
        sent = np.zeros(nparts, dtype=np.int64)
        for (src, _), points in sched.items():
            sent[src] += points
        np.testing.assert_array_equal(sent, acct.per_rank_sent)
        assert len(sched) == acct.messages

        src = pdss.slot_rank[pdss.msg_src]
        dst = pdss.slot_rank[pdss.msg_dst]
        pairs, points = np.unique(src * nparts + dst, return_counts=True)
        want = np.zeros(nparts)
        for pair, n in zip(pairs.tolist(), points.tolist()):
            link = model.machine.link(pair // nparts, pair % nparts)
            want[pair // nparts] += model.cost.exchanges_per_step() * link.message_time(
                n * model.cost.bytes_per_point()
            )
        np.testing.assert_array_equal(model.step_timing(part).comm_s, want)


class TestFullPipeline:
    @pytest.mark.parametrize("method", ["sfc", "rb", "kway", "tv"])
    def test_mesh_to_timing(self, method):
        g = mesh_graph(cubed_sphere_mesh(4))
        from repro.experiments import run_method

        r = run_method(4, 16, method)
        assert r.speedup > 1
        assert r.quality.nparts == 16

    def test_sfc_parts_connected_all_resolutions(self):
        for ne in (2, 3, 6):
            mesh = cubed_sphere_mesh(ne)
            g = mesh_graph(mesh)
            nparts = mesh.nelem // 2
            p = sfc_partition(ne, nparts)
            for part in range(0, nparts, max(1, nparts // 8)):
                sub, _ = g.subgraph(p.members(part))
                assert is_connected(sub)


class TestPaperHeadlines:
    """The claims of the paper's abstract and Section 4, as assertions.

    These run at the paper's actual scales; they are the 'does the
    reproduction reproduce' gate.
    """

    @pytest.mark.slow
    def test_sfc_matches_metis_at_small_counts(self):
        from repro.experiments import best_metis, speedup_sweep

        res = speedup_sweep(8, nprocs=[6, 12, 24])
        for i in range(3):
            sfc = res["sfc"][i]
            bm = best_metis(res, i)
            assert sfc.speedup > 0.9 * bm.speedup

    @pytest.mark.slow
    def test_sfc_wins_above_fifty_processors(self):
        """'The advantage of the SFC approach occurs above 50
        processors where each processor contains less than eight
        spectral elements.'"""
        from repro.experiments import best_metis, speedup_sweep

        res = speedup_sweep(8, nprocs=[96, 192, 384])
        for i in range(3):
            assert res["sfc"][i].speedup > best_metis(res, i).speedup

    @pytest.mark.slow
    def test_k384_large_advantage_at_384_procs(self):
        """Paper: 37% better than best METIS at 384 procs (we assert a
        double-digit advantage; absolute % depends on network consts)."""
        from repro.experiments import best_metis, speedup_sweep

        res = speedup_sweep(8, nprocs=[384])
        adv = res["sfc"][0].speedup / best_metis(res, 0).speedup - 1
        assert adv > 0.10

    @pytest.mark.slow
    def test_k1536_advantage_at_768_procs(self):
        """Paper: 22% at 768 processors."""
        from repro.experiments import best_metis, speedup_sweep

        res = speedup_sweep(16, nprocs=[768])
        adv = res["sfc"][0].speedup / best_metis(res, 0).speedup - 1
        assert adv > 0.10

    @pytest.mark.slow
    def test_table2_sfc_row(self):
        from repro.experiments import table2

        rows = table2(ne=16, nproc=768)
        sfc = rows[0]
        assert sfc.lb_nelemd == 0.0
        assert sfc.time_us == min(r.time_us for r in rows)
