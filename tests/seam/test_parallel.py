"""Unit tests for the simulated distributed (partitioned) execution."""

from __future__ import annotations

import hashlib

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
    build_halo_schedule,
    build_point_map,
    cosine_bell,
    solid_body_wind,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])

#: (ne, np, method, parts) of the schedule-versus-outbox check: each
#: partitioner at each size, down to one rank (an empty schedule).
SCHEDULE_CASES = [
    (ne, npts, method, nparts)
    for ne, npts, nparts in [
        (2, 4, 4),
        (3, 5, 6),
        (4, 8, 48),
        (16, 8, 96),
        (4, 4, 7),
        (8, 8, 24),
        (4, 4, 1),
    ]
    for method in ("sfc", "rb", "kway")
]


def _partition(method: str, ne: int, nparts: int) -> Partition:
    if method == "sfc":
        return sfc_partition(ne, nparts)
    from repro.cubesphere import cubed_sphere_mesh
    from repro.graphs import mesh_graph

    return part_graph(mesh_graph(cubed_sphere_mesh(ne)), nparts, method, seed=0)


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

    def test_accounting_matches_exchange_schedule(self, rng):
        """The halo schedule is the (src, dst) run lengths of the outbox,
        key order included, and what one exchange is charged."""
        for ne, npts, method, nparts in SCHEDULE_CASES:
            geom = build_geometry(ne, npts)
            partition = _partition(method, ne, nparts)
            pmap = build_point_map(ne, npts)
            parallel = PartitionedDSS(geom, partition, pmap)
            sched = build_halo_schedule(pmap, partition)
            case = (ne, npts, method, nparts)

            src = parallel.slot_rank[parallel.msg_src].tolist()
            dst = parallel.slot_rank[parallel.msg_dst].tolist()
            runs: dict[tuple[int, int], int] = {}
            for pair in zip(src, dst):
                runs[pair] = runs.get(pair, 0) + 1
            assert sched == runs, case
            assert list(sched.items()) == list(runs.items()), case
            assert (nparts == 1) == (sched == {}), case

            parallel.apply(rng.standard_normal(parallel.local_mass.shape))
            acct = parallel.accounting
            assert acct.exchanges == 1, case
            assert acct.values == sum(sched.values()), case
            assert acct.messages == len(sched), case
            sent = np.zeros(nparts, dtype=np.int64)
            for (s, _), n in sched.items():
                sent[s] += n
            assert np.array_equal(acct.per_rank_sent, sent), case

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

    def test_point_map_of_another_grid_rejected(self):
        """A map of another np is refused, naming both shapes."""
        other = build_point_map(3, 4)
        with pytest.raises(ValueError, match=r"\(54, 4, 4\).*\(54, 8, 8\)"):
            PartitionedDSS(build_geometry(3, 8), sfc_partition(3, 6), other)


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


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


class TestPartitionedTransportDigests:
    """Bit pins of partitioned runs on the (3, 5) grid: three steps and
    one ``run``, with the exchanges, messages and values they charged.

    The pins hold wherever the inputs -- geometry, wind, bell and one
    right-hand side -- round as they did when the pins were taken
    (x86-64, NumPy 2.4).  A platform whose math library or BLAS rounds
    those differently cannot reproduce the bits, so the pins skip there.
    """

    INPUTS = "5bcd96cf4de5c401"
    #: parts -> ((steps digest, counts), (run digest, counts)).
    PINS = {
        6: (
            ("35ee253aa4bdba67", (10, 240, 3120)),
            ("e0aa0b967d68eccb", (22, 528, 6864)),
        ),
        9: (
            ("e221b4e16d26461d", (10, 440, 5000)),
            ("175b0fb569f6d792", (22, 968, 11000)),
        ),
    }

    @pytest.fixture(scope="class")
    def setup(self, geom):
        wind = solid_body_wind(geom.xyz, Z, 1.0)
        q0 = cosine_bell(geom.xyz, X)
        rhs = TransportSolver(geom, wind).rhs(q0)
        if _digest(geom.xyz, geom.jac, geom.ginv, wind, q0, rhs) != self.INPUTS:
            pytest.skip("this platform rounds the pinned inputs differently")
        return wind, q0

    @staticmethod
    def _counts(run: PartitionedTransportRun) -> tuple[int, int, int]:
        acct = run.accounting
        return acct.exchanges, acct.messages, acct.values

    @pytest.mark.parametrize("nparts", [6, 9])
    def test_steps(self, geom, setup, nparts):
        wind, q0 = setup
        run = PartitionedTransportRun(geom, wind, sfc_partition(3, nparts))
        dt = run.stable_dt(0.4)
        q = run.pdss.apply(q0)
        for _ in range(3):
            q = run.step(q, dt)
        assert (_digest(q), self._counts(run)) == self.PINS[nparts][0]

    @pytest.mark.parametrize("nparts", [6, 9])
    def test_run(self, geom, setup, nparts):
        wind, q0 = setup
        run = PartitionedTransportRun(geom, wind, sfc_partition(3, nparts))
        q = run.run(q0, t_end=0.15, cfl=0.4)
        assert (_digest(q), self._counts(run)) == self.PINS[nparts][1]
