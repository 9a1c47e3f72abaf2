"""Unit tests for the performance simulator."""

from __future__ import annotations

import numpy as np
import pytest

import repro.machine.perf as perf_mod
from repro.experiments.figures import speedup_sweep
from repro.machine.perf import PerformanceModel
from repro.memo import clear_stage_caches
from repro.machine.spec import P690_CLUSTER
from repro.partition.base import Partition
from repro.partition.sfc import sfc_partition
from repro.seam.cost import SEAMCostModel


@pytest.fixture(scope="module")
def model():
    return PerformanceModel()


class TestSerial:
    def test_serial_time_is_flops_over_rate(self, model):
        t = model.serial_step_time(384)
        expect = model.cost.step_flops(384) / P690_CLUSTER.sustained_flops
        assert t == pytest.approx(expect)

    def test_serial_sustained_rate_is_841_mflops(self, model):
        p = sfc_partition(8, 1)
        timing = model.step_timing(p)
        assert timing.sustained_flops == pytest.approx(841e6)


class TestStepTiming:
    def test_perfect_partition_splits_compute(self, model):
        p = sfc_partition(8, 96)
        timing = model.step_timing(p)
        np.testing.assert_allclose(
            timing.compute_s, model.serial_step_time(384) / 96
        )
        assert timing.step_s > timing.compute_s[0]  # comm adds time

    def test_speedup_monotone_through_midrange(self, model):
        speedups = [
            model.speedup(sfc_partition(8, n)) for n in (2, 8, 32, 96)
        ]
        assert speedups == sorted(speedups)

    def test_imbalanced_partition_slower(self, model):
        balanced = sfc_partition(8, 96)
        # Pile 2 extra elements onto rank 0.
        bad = balanced.assignment.copy()
        bad[balanced.members(1)[:2]] = 0
        imbalanced = Partition(bad, nparts=96)
        t_good = model.step_timing(balanced).step_s
        t_bad = model.step_timing(imbalanced).step_s
        assert t_bad > t_good

    def test_empty_parts_are_idle(self, model):
        # All elements on rank 0 of 4: ranks 1-3 idle, time ~ serial.
        p = Partition(np.zeros(384, dtype=np.int64), nparts=4)
        timing = model.step_timing(p)
        assert timing.compute_s[1:].sum() == 0
        assert timing.step_s == pytest.approx(model.serial_step_time(384))

    def test_job_limit_enforced(self, model):
        p = Partition(np.arange(384) % 384, nparts=384)
        object.__setattr__(p, "nparts", 769)  # forge an oversized job
        with pytest.raises(ValueError, match="job limit"):
            model.step_timing(p)

    @pytest.mark.parametrize("k", [0, 5, 100])
    def test_grid_not_a_cubed_sphere_rejected(self, model, k):
        """Only K = 6 ne^2 elements name a grid to exchange over."""
        p = Partition(np.zeros(k, dtype=np.int64), nparts=2)
        with pytest.raises(ValueError, match=f"K={k} "):
            model.step_timing(p)

    def test_total_flops_independent_of_partition(self, model):
        a = model.step_timing(sfc_partition(8, 4)).total_flops
        b = model.step_timing(sfc_partition(8, 96)).total_flops
        assert a == b

    def test_compute_fraction_in_unit_interval(self, model):
        t = model.step_timing(sfc_partition(8, 48))
        assert 0 < t.compute_fraction <= 1


class TestCostScaling:
    def test_more_levels_more_time(self):
        lo = PerformanceModel(cost=SEAMCostModel(nlev=1))
        hi = PerformanceModel(cost=SEAMCostModel(nlev=16))
        p = sfc_partition(8, 48)
        assert hi.step_timing(p).step_s > lo.step_timing(p).step_s

    def test_communication_uses_intra_node_links(self):
        """Consecutive SFC ranks share SMP nodes, so SFC comm must be
        cheaper than the same partition with scrambled rank numbers."""
        model = PerformanceModel()
        p = sfc_partition(8, 96)
        rng = np.random.default_rng(0)
        perm = rng.permutation(96)
        scrambled = Partition(perm[p.assignment], nparts=96)
        t_sfc = model.step_timing(p)
        t_scr = model.step_timing(scrambled)
        assert t_sfc.comm_s.sum() < t_scr.comm_s.sum()


def test_a_sweep_builds_one_point_map_per_grid(monkeypatch):
    """Every simulated point of a sweep prices its halo on the grid's one
    memoized point map."""
    calls = []
    build = perf_mod.build_point_map

    def counted(ne, npts):
        calls.append((ne, npts))
        return build(ne, npts)

    monkeypatch.setattr(perf_mod, "build_point_map", counted)
    clear_stage_caches()
    try:
        speedup_sweep(4, methods=("sfc", "rb"), nprocs=[2, 4, 8, 12])
        speedup_sweep(4, methods=("sfc",), nprocs=[6])
        assert calls == [(4, 8)]
        speedup_sweep(2, methods=("sfc",), nprocs=[2, 3])
        assert calls == [(4, 8), (2, 8)]
    finally:
        clear_stage_caches()
