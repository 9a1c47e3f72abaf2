"""The uint64 key path is bit-identical to the materialized curve.

``curve_keys`` must reproduce ``generate_curve(...).index`` exactly —
for every admissible size, every refinement schedule, and every
implementation (C kernel, generic NumPy decode).  The materialized
generator is the golden oracle.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.sfc.baselines import morton_curve
from repro.sfc.factorization import admissible_sizes, all_schedules
from repro.sfc.generator import generate_curve
from repro.sfc.keys import (
    KEY_DTYPE,
    _keys_numpy,
    curve_keys,
    morton_keys,
    schedule_tables,
)

#: Every admissible size the golden sweep covers (through 24 this is
#: {1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24} — all radix mixes appear).
SIZES = admissible_sizes(24)


def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    y, x = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return x.ravel(), y.ravel()


class TestGoldenEquivalence:
    @pytest.mark.parametrize("n", SIZES)
    def test_every_schedule_matches_generator(self, n):
        x, y = _grid(n)
        for schedule in all_schedules(n):
            golden = generate_curve(schedule=schedule).index[x, y]
            keys = curve_keys(x, y, schedule=schedule)
            assert keys.dtype == KEY_DTYPE
            np.testing.assert_array_equal(keys.astype(np.int64), golden)

    @pytest.mark.parametrize("n", SIZES)
    def test_size_selector_uses_default_schedule(self, n):
        x, y = _grid(n)
        golden = generate_curve(n).index[x, y]
        np.testing.assert_array_equal(
            curve_keys(x, y, size=n).astype(np.int64), golden
        )

    def test_keys_are_a_bijection(self):
        x, y = _grid(12)
        keys = curve_keys(x, y, size=12)
        assert sorted(keys.tolist()) == list(range(12 * 12))


class TestImplementationParity:
    """Both decoders agree (the dispatch is an optimization only)."""

    @pytest.mark.parametrize("schedule", ["PP", "PHP", "HPH", "HHH", "HHHH"])
    def test_generic_matches_generator(self, schedule):
        kt = schedule_tables(schedule)
        x, y = _grid(kt.size)
        golden = generate_curve(schedule=schedule).index[x, y]
        np.testing.assert_array_equal(
            _keys_numpy(x, y, kt).astype(np.int64), golden
        )

    def test_ckernel_and_fallback_identical(self):
        """Keys do not depend on whether the C kernel loaded.

        Each side runs in a subprocess because the kernel library is
        chosen at import time (same idiom as the telemetry parity test).
        """
        script = (
            "import json, numpy as np\n"
            "from repro.sfc.keys import curve_keys\n"
            "out = {}\n"
            "for sched in ('HHHH', 'PP', 'PHHP'):\n"
            "    from repro.sfc.factorization import schedule_size\n"
            "    n = schedule_size(sched)\n"
            "    y, x = np.meshgrid(np.arange(n), np.arange(n), indexing='ij')\n"
            "    out[sched] = curve_keys(\n"
            "        x.ravel(), y.ravel(), schedule=sched).tolist()\n"
            "print(json.dumps(out))\n"
        )

        def run(no_ckernels: bool) -> str:
            env = dict(os.environ)
            env.pop("REPRO_NO_CKERNELS", None)
            if no_ckernels:
                env["REPRO_NO_CKERNELS"] = "1"
            return subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout

        assert run(no_ckernels=False) == run(no_ckernels=True)


class TestMorton:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_matches_materialized_z_order(self, level):
        mc = morton_curve(level)
        n = mc.size
        keys = morton_keys(mc.coords[:, 0], mc.coords[:, 1], n)
        np.testing.assert_array_equal(
            keys.astype(np.int64), np.arange(n * n)
        )

    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power-of-two"):
            morton_keys([0], [0], 12)

    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="coordinates"):
            morton_keys([4], [0], 4)


class TestValidation:
    def test_exactly_one_selector(self):
        with pytest.raises(ValueError, match="exactly one"):
            curve_keys([0], [0])
        with pytest.raises(ValueError, match="exactly one"):
            curve_keys([0], [0], size=4, schedule="HH")

    def test_coordinate_bounds(self):
        with pytest.raises(ValueError, match="x coordinates"):
            curve_keys([4], [0], size=4)
        with pytest.raises(ValueError, match="y coordinates"):
            curve_keys([0], [-1], size=4)

    def test_check_false_skips_bounds(self):
        curve_keys(np.array([0]), np.array([0]), size=4, check=False)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            curve_keys([0, 1], [0], size=4)

    def test_shape_preserved(self):
        x = np.arange(4).reshape(2, 2)
        y = np.zeros((2, 2), dtype=int)
        assert curve_keys(x, y, size=4).shape == (2, 2)

    def test_unknown_schedule_code(self):
        with pytest.raises(ValueError, match="unknown refinement code"):
            schedule_tables("HX")

    def test_tables_are_immutable(self):
        kt = schedule_tables("HH")
        with pytest.raises(ValueError):
            kt.tables[0, 0] = 99


class TestGeneratorDowncast:
    """Satellite: curve arrays shrink to int32 when positions fit."""

    def test_int32_at_small_sizes(self):
        c = generate_curve(16)
        assert c.coords.dtype == np.int32
        assert c.index.dtype == np.int32

    def test_positions_unchanged_by_downcast(self):
        c = generate_curve(schedule="PH")
        golden = curve_keys(
            c.coords[:, 0], c.coords[:, 1], schedule="PH"
        )
        np.testing.assert_array_equal(golden.astype(np.int64), np.arange(36))
