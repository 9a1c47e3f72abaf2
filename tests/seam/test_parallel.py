"""Unit tests for the simulated distributed (partitioned) execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metis import part_graph
from repro.partition import Partition, sfc_partition
from repro.seam import (
    DSSOperator,
    PartitionedDSS,
    PartitionedTransportRun,
    TransportSolver,
    build_geometry,
    cosine_bell,
    solid_body_wind,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def geom():
    return build_geometry(3, 5)


@pytest.fixture(scope="module")
def partition():
    return sfc_partition(3, 6)


class TestPartitionedDSS:
    def test_equals_serial_dss(self, geom, partition, rng):
        serial = DSSOperator(geom)
        parallel = PartitionedDSS(geom, partition)
        q = rng.standard_normal(serial.local_mass.shape)
        np.testing.assert_allclose(
            parallel.apply(q), serial.apply(q), atol=1e-12
        )

    def test_equals_serial_for_metis_partition(self, geom, rng):
        from repro.graphs import mesh_graph

        g = mesh_graph(geom.mesh)
        part = part_graph(g, 9, "kway", seed=0)
        serial = DSSOperator(geom)
        parallel = PartitionedDSS(geom, part)
        q = rng.standard_normal(serial.local_mass.shape)
        np.testing.assert_allclose(
            parallel.apply(q), serial.apply(q), atol=1e-12
        )

    def test_result_continuous(self, geom, partition, rng):
        parallel = PartitionedDSS(geom, partition)
        q = rng.standard_normal(parallel.local_mass.shape)
        assert parallel.is_continuous(parallel.apply(q))

    def test_single_rank_no_messages(self, geom, rng):
        p = Partition(np.zeros(geom.mesh.nelem, dtype=np.int64), nparts=1)
        parallel = PartitionedDSS(geom, p)
        q = rng.standard_normal(parallel.local_mass.shape)
        parallel.apply(q)
        assert parallel.accounting.messages == 0
        assert parallel.accounting.values == 0
        assert parallel.accounting.exchanges == 1

    def test_accounting_counts_per_exchange(self, geom, partition, rng):
        parallel = PartitionedDSS(geom, partition)
        q = rng.standard_normal(parallel.local_mass.shape)
        parallel.apply(q)
        after_one = parallel.accounting.values
        parallel.apply(q)
        assert parallel.accounting.values == 2 * after_one
        assert parallel.accounting.exchanges == 2

    def test_accounting_matches_exchange_schedule(self, geom, partition, rng):
        from repro.seam import build_halo_schedule, build_point_map

        parallel = PartitionedDSS(geom, partition)
        q = rng.standard_normal(parallel.local_mass.shape)
        parallel.apply(q)
        sched = build_halo_schedule(build_point_map(geom), partition)
        assert parallel.accounting.values == sum(sched.values())
        assert parallel.accounting.messages == len(sched)

    def test_per_rank_sent_sums_to_total(self, geom, partition, rng):
        parallel = PartitionedDSS(geom, partition)
        q = rng.standard_normal(parallel.local_mass.shape)
        parallel.apply(q)
        assert parallel.accounting.per_rank_sent.sum() == parallel.accounting.values

    def test_bytes_moved(self, geom, partition, rng):
        parallel = PartitionedDSS(geom, partition)
        q = rng.standard_normal(parallel.local_mass.shape)
        parallel.apply(q)
        assert parallel.accounting.bytes_moved(8) == 8 * parallel.accounting.values

    def test_mismatched_partition_rejected(self, geom):
        with pytest.raises(ValueError, match="does not match"):
            PartitionedDSS(geom, sfc_partition(2, 4))


class TestPartitionedTransport:
    def test_matches_serial_solver(self, geom):
        xyz = np.stack([e.xyz for e in geom.elements])
        wind = solid_body_wind(xyz, Z, 1.0)
        q0 = cosine_bell(xyz, X)
        serial = TransportSolver(geom, wind).run(q0, t_end=0.15, cfl=0.4)
        par = PartitionedTransportRun(geom, wind, sfc_partition(3, 9))
        parallel = par.run(q0, t_end=0.15, cfl=0.4)
        np.testing.assert_allclose(parallel, serial, atol=1e-12)

    def test_messages_scale_with_steps(self, geom):
        xyz = np.stack([e.xyz for e in geom.elements])
        wind = solid_body_wind(xyz, Z, 1.0)
        q0 = cosine_bell(xyz, X)
        run = PartitionedTransportRun(geom, wind, sfc_partition(3, 6))
        dt = run.stable_dt(0.4)
        q = run.pdss.apply(q0)
        base = run.accounting.exchanges
        run.step(q, dt)
        # One RK3 step = 3 DSS applications.
        assert run.accounting.exchanges == base + 3

    def test_more_ranks_more_traffic(self, geom):
        xyz = np.stack([e.xyz for e in geom.elements])
        wind = solid_body_wind(xyz, Z, 1.0)
        q0 = cosine_bell(xyz, X)
        totals = []
        for nparts in (2, 6, 18):
            run = PartitionedTransportRun(geom, wind, sfc_partition(3, nparts))
            run.run(q0, t_end=0.05, cfl=0.4)
            totals.append(
                run.accounting.values / max(run.accounting.exchanges, 1)
            )
        assert totals[0] < totals[1] < totals[2]
