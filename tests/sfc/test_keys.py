"""The uint64 key path is bit-identical to the forward construction.

``curve_keys`` must reproduce the visit order of the forward expansion
in ``tests/sfc/reference_curve.py`` exactly — for every admissible
size and every refinement schedule — and so must the NumPy oracle of
its C kernel (``tests/sfc/reference_keys.py``).  The library materializes its curves from these
keys, so :class:`TestMaterializedCurves` checks them against the same
oracles, arrays and dtypes alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubesphere.curve import build_curve
from repro.cubesphere.mesh import cubed_sphere_mesh
from repro.sfc.baselines import morton_curve
from repro.sfc.factorization import admissible_sizes, all_schedules, default_schedule
from repro.sfc.generator import generate_curve
from repro.sfc.keys import KEY_DTYPE, curve_keys, morton_keys, schedule_tables
from tests.cubesphere.reference_curve import reference_cubed_sphere_curve
from tests.sfc.reference_curve import reference_curve, reference_morton_curve
from tests.sfc.reference_keys import keys_numpy

#: Every admissible size the golden sweep covers (through 24 this is
#: {1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24} — all radix mixes appear).
SIZES = admissible_sizes(24)


def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    y, x = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return x.ravel(), y.ravel()


class TestGoldenEquivalence:
    @pytest.mark.parametrize("n", SIZES)
    def test_every_schedule_matches_forward_expansion(self, n):
        x, y = _grid(n)
        for schedule in all_schedules(n):
            golden = reference_curve(schedule).index[x, y]
            keys = curve_keys(x, y, schedule=schedule)
            assert keys.dtype == KEY_DTYPE
            np.testing.assert_array_equal(keys.astype(np.int64), golden)

    @pytest.mark.parametrize("n", SIZES)
    def test_size_selector_uses_default_schedule(self, n):
        x, y = _grid(n)
        golden = reference_curve(default_schedule(n)).index[x, y]
        np.testing.assert_array_equal(
            curve_keys(x, y, size=n).astype(np.int64), golden
        )

    def test_keys_are_a_bijection(self):
        x, y = _grid(12)
        keys = curve_keys(x, y, size=12)
        assert sorted(keys.tolist()) == list(range(12 * 12))


class TestNumpyOracle:
    """The NumPy oracle of the ``sfc_keys`` kernel."""

    @pytest.mark.parametrize("schedule", ["PP", "PHP", "HPH", "HHH", "HHHH"])
    def test_oracle_matches_forward_expansion(self, schedule):
        kt = schedule_tables(schedule)
        x, y = _grid(kt.size)
        golden = reference_curve(schedule).index[x, y]
        np.testing.assert_array_equal(keys_numpy(x, y, kt).astype(np.int64), golden)

    @pytest.mark.parametrize("schedule", ["HHHH", "PP", "PHHP"])
    def test_c_kernel_matches_oracle(self, schedule):
        kt = schedule_tables(schedule)
        x, y = _grid(kt.size)
        np.testing.assert_array_equal(
            curve_keys(x, y, schedule=schedule), keys_numpy(x, y, kt)
        )


class TestMorton:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_matches_de_interleaved_z_order(self, level):
        mc = reference_morton_curve(level)
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


#: Bounds of the materialized-curve sweep: every schedule of every
#: admissible size up to these, about a second with or without kernels.
FACE_BOUND = 200
MORTON_LEVELS = 10
SPHERE_BOUND = 96


def _materialized_cases():
    for n in admissible_sizes(FACE_BOUND):
        yield pytest.param("face", n, id=f"face-{n}")
    for level in range(MORTON_LEVELS):
        yield pytest.param("morton", level, id=f"morton-{level}")
    for ne in admissible_sizes(SPHERE_BOUND):
        yield pytest.param("sphere", ne, id=f"sphere-{ne}")


def _assert_same_arrays(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestMaterializedCurves:
    """Curves inverted from their keys equal the forward constructions."""

    @pytest.mark.parametrize("kind,size", _materialized_cases())
    def test_matches_forward_construction(self, kind, size):
        if kind == "morton":
            _assert_same_arrays(
                morton_curve(size), reference_morton_curve(size), ("coords", "index")
            )
            return
        for schedule in all_schedules(size):
            if kind == "face":
                _assert_same_arrays(
                    generate_curve(schedule=schedule),
                    reference_curve(schedule),
                    ("coords", "index"),
                )
            else:
                _assert_same_arrays(
                    build_curve(cubed_sphere_mesh(size), schedule),
                    reference_cubed_sphere_curve(size, schedule),
                    ("order", "position"),
                )
