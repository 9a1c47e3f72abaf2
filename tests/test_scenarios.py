"""Tests for the named weight-scenario registry and its generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios import (
    Scenario,
    UnknownScenarioError,
    available_scenarios,
    get_scenario,
    register_scenario,
    scenario_weights,
    specs,
)

from .reference_scenarios import REFERENCE

NE = 6
K = 6 * NE * NE


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        assert {"storm", "daynight", "amr"} <= set(available_scenarios())

    def test_specs_align_with_names(self):
        assert tuple(s.name for s in specs()) == available_scenarios()

    def test_unknown_name_did_you_mean(self):
        with pytest.raises(UnknownScenarioError, match="did you mean 'storm'"):
            get_scenario("strom")

    def test_unknown_scenario_is_value_error(self):
        """Service boundaries catch ValueError; the subclass must be one."""
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_weights("nope", NE)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("storm"))

    def test_replace_allows_reregistration(self):
        spec = get_scenario("storm")
        assert register_scenario(spec, replace=True) is spec

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="identifier"):
            register_scenario(Scenario(name="no spaces", generate=lambda ne, s: None))

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept parameters"):
            scenario_weights("storm", NE, wind=3.0)


@pytest.mark.parametrize("name", ["storm", "daynight", "amr"])
class TestGeneratorContract:
    def test_shape_dtype_positive_finite(self, name):
        w = scenario_weights(name, NE, step=7)
        assert w.shape == (K,)
        assert w.dtype == np.float64
        assert w.flags["C_CONTIGUOUS"]
        assert np.isfinite(w).all()
        assert (w > 0).all()

    def test_deterministic(self, name):
        """Same (name, ne, step, params) is bit-identical — the property
        that makes scenario requests content-addressable."""
        a = scenario_weights(name, NE, step=13)
        b = scenario_weights(name, NE, step=13)
        np.testing.assert_array_equal(a, b)

    def test_periodic_in_nsteps(self, name):
        a = scenario_weights(name, NE, step=3)
        b = scenario_weights(name, NE, step=103)  # default nsteps=100
        np.testing.assert_array_equal(a, b)

    def test_steps_differ(self, name):
        a = scenario_weights(name, NE, step=0)
        b = scenario_weights(name, NE, step=25)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("ne", [1, 6, 16, 64])
    @pytest.mark.parametrize("variant", ["default", "nsteps", "params"])
    def test_bit_identical_to_reference(self, name, ne, variant):
        """Cached center trig must not change a single bit of the weights
        the per-call expressions in ``reference_scenarios`` give."""
        params = {
            "default": {},
            "nsteps": {"nsteps": 7.5},
            "params": {
                "storm": {"lat0": 0.4, "sigma": 0.3, "amplitude": 3.0},
                "daynight": {"day_weight": 2.5, "night_weight": 0.5},
                "amr": {"max_level": 3, "radius": 1.1, "lon0": 1.0, "lat0": -0.5},
            }[name],
        }[variant]
        for step in (0, 1, 13, 25, 50, 99, 250):
            want = REFERENCE[name](ne, step, **params)
            got = scenario_weights(name, ne, step, **params)
            assert got.tobytes() == want.tobytes()


class TestStorm:
    def test_hotspot_moves_with_step(self):
        """The weight maximum tracks the circling storm center."""
        peaks = [int(np.argmax(scenario_weights("storm", NE, s)))
                 for s in (0, 25, 50, 75)]
        assert len(set(peaks)) == 4

    def test_amplitude_param(self):
        calm = scenario_weights("storm", NE, 0, amplitude=0.5)
        wild = scenario_weights("storm", NE, 0, amplitude=50.0)
        assert wild.max() > calm.max()
        assert np.isclose(calm.min(), 1.0, atol=0.1)


class TestDaynight:
    def test_hemisphere_contrast(self):
        w = scenario_weights("daynight", NE, 0)
        # Dark columns sit at exactly night_weight; sunlit ones above.
        assert np.isclose(w.min(), 1.0)
        assert w.max() > 3.5

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="night_weight"):
            scenario_weights("daynight", NE, 0, night_weight=5.0, day_weight=1.0)


class TestAmr:
    def test_cycle_breathes(self):
        """Level runs 0 -> max -> 0 over the cycle: uniform at the ends,
        maximally refined in the middle."""
        start = scenario_weights("amr", NE, 0)
        middle = scenario_weights("amr", NE, 50)
        assert np.all(start == 1.0)
        assert middle.max() == 4.0 ** 2  # default max_level=2

    def test_weights_are_power_of_four_leaf_counts(self):
        w = scenario_weights("amr", NE, 30, max_level=3)
        assert set(np.unique(w)) <= {4.0 ** v for v in range(4)}

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="max_level"):
            scenario_weights("amr", NE, 0, max_level=0)
