"""Unit tests for the figure sweep machinery."""

from __future__ import annotations

import pytest

from repro.experiments.figures import (
    best_metis,
    run_method,
    speedup_sweep,
)
from repro.partition import partition_stage, registry


class TestMakePartition:
    """``partition_stage`` dispatches every sweep method through the registry."""

    @pytest.mark.parametrize("method", registry.available())
    def test_all_methods(self, method):
        p = partition_stage(method, 4, 8)
        assert p.nparts == 8
        assert p.nvertices == 96

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            partition_stage("quantum", 4, 8)

    def test_sfc_schedule_passthrough(self):
        import numpy as np

        a = partition_stage("sfc", 6, 12, schedule="PH")
        b = partition_stage("sfc", 6, 12, schedule="HP")
        assert not np.array_equal(a.assignment, b.assignment)


class TestRunMethod:
    def test_result_fields(self):
        r = run_method(4, 12, "sfc")
        assert r.method == "sfc"
        assert r.nproc == 12
        assert r.speedup > 1
        assert r.gflops > 0
        assert r.step_us > 0
        assert r.quality.lb_nelemd == 0.0

    def test_single_processor_speedup_is_one(self):
        r = run_method(4, 1, "sfc")
        assert r.speedup == pytest.approx(1.0)


class TestSweep:
    def test_sweep_shape(self):
        res = speedup_sweep(4, methods=("sfc", "rb"), nprocs=[2, 8, 24])
        assert set(res) == {"sfc", "rb"}
        assert [r.nproc for r in res["sfc"]] == [2, 8, 24]

    def test_default_nprocs_are_divisors(self):
        res = speedup_sweep(2, methods=("sfc",))
        nprocs = [r.nproc for r in res["sfc"]]
        assert nprocs == [1, 2, 3, 4, 6, 8, 12, 24]

    def test_best_metis_selection(self):
        res = speedup_sweep(4, methods=("sfc", "rb", "kway"), nprocs=[24])
        bm = best_metis(res, 0)
        assert bm.method in ("rb", "kway")
        assert bm.speedup == max(res["rb"][0].speedup, res["kway"][0].speedup)

    def test_best_metis_requires_metis(self):
        res = speedup_sweep(4, methods=("sfc",), nprocs=[4])
        with pytest.raises(ValueError, match="no METIS"):
            best_metis(res, 0)
