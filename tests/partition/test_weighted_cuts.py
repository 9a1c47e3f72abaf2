"""Golden tests for the exact weighted curve cut.

The earlier heuristic (greedy prefix-sum cuts plus the correction pass
of Borrell et al.) lives on in ``reference_cuts.py`` as the reference
the exact cut must never lose to; its own tests stay here with it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.partition.metrics import load_balance
from repro.partition.sfc import cut_positions_uniform, cut_positions_weighted

from .reference_cuts import (
    dp_optimum,
    greedy_cut,
    is_optimal,
    previous_cut,
    refine_cut_positions,
    segment_loads,
)


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive, heavy-tailed weights (the hard case)."""
    return np.exp(rng.normal(0.0, 1.5, size=n)) + 1e-3


class TestRefineCutPositions:
    @pytest.mark.parametrize("seed", range(25))
    def test_never_worse_than_greedy(self, seed):
        """The golden property, per seed: the exact cut's maximum load
        is never above the earlier cut's (greedy + correction pass),
        which is never above the greedy cut's; and it is optimal."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 200))
        nparts = int(rng.integers(2, min(n, 24)))
        w = random_weights(rng, n)
        greedy = greedy_cut(w, nparts)
        refined = refine_cut_positions(w, greedy)
        exact = cut_positions_weighted(w, nparts)
        top = segment_loads(w, exact).max()
        assert top <= segment_loads(w, refined).max()
        assert segment_loads(w, refined).max() <= segment_loads(w, greedy).max()
        assert is_optimal(w, exact)

    @pytest.mark.parametrize("seed", range(25))
    def test_bounds_stay_valid(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(8, 120))
        nparts = int(rng.integers(2, min(n, 16)))
        w = random_weights(rng, n)
        bounds = cut_positions_weighted(w, nparts)
        assert bounds[0] == 0 and bounds[-1] == n
        assert (np.diff(bounds) >= 1).all()  # every segment non-empty

    def test_improves_a_known_bad_greedy_cut(self):
        """A case where the greedy midpoint rule provably misplaces the
        first cut; one boundary shift fixes it, and that is optimal."""
        w = np.array([7.0, 8.0, 1.0, 2.0, 7.0, 8.0, 2.0, 3.0, 7.0])
        greedy = greedy_cut(w, 3)
        refined = refine_cut_positions(w, greedy)
        exact = cut_positions_weighted(w, 3)
        assert greedy.tolist() == [0, 2, 6, 9]  # loads [15, 18, 12]
        assert refined.tolist() == [0, 3, 6, 9]  # loads [16, 17, 12]
        assert exact.tolist() == [0, 3, 6, 9]
        lb_g = load_balance(segment_loads(w, greedy))
        lb_r = load_balance(segment_loads(w, exact))
        assert lb_r < lb_g

    def test_rounding_cannot_make_two_shifts_undo_each_other(self):
        """Loads 0.1 | 0.2 over [..., 0.1, 0.1, 0.1]: judged by ``left -
        w``, moving the last bound right and then back left each looked
        like a gain in floating point, and the pass never ended."""
        w = np.array([1.0, 1.0, 0.1, 0.1, 0.1])
        out = refine_cut_positions(w, np.array([0, 1, 2, 3, 5]))
        assert out.tolist() == [0, 1, 2, 3, 5]

    def test_input_bounds_not_mutated(self):
        w = np.array([5.0, 1.0, 1.0, 1.0])
        bounds = np.array([0, 2, 4], dtype=np.int64)
        out = refine_cut_positions(w, bounds)
        assert bounds.tolist() == [0, 2, 4]
        assert out is not bounds

    def test_max_sweeps_caps_work(self):
        rng = np.random.default_rng(7)
        w = random_weights(rng, 200)
        greedy = greedy_cut(w, 16)
        capped = refine_cut_positions(w, greedy, max_sweeps=1)
        full = refine_cut_positions(w, greedy)
        lb_capped = load_balance(segment_loads(w, capped))
        lb_full = load_balance(segment_loads(w, full))
        assert lb_full <= lb_capped + 1e-12

    def test_fixpoint_is_stable(self):
        """Running the pass on its own output changes nothing, and on
        the exact cut it finds no shift that lowers a pair's larger load."""
        rng = np.random.default_rng(11)
        w = random_weights(rng, 150)
        once = previous_cut(w, 12)
        np.testing.assert_array_equal(once, refine_cut_positions(w, once))
        exact = cut_positions_weighted(w, 12)
        top = segment_loads(w, exact).max()
        assert segment_loads(w, refine_cut_positions(w, exact)).max() == top


positive_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


class TestWeightedCutProperties:
    """Property versions of the goldens above, over arbitrary inputs."""

    @settings(max_examples=200, deadline=None)
    @given(positive_weights, st.data())
    def test_never_worse_than_greedy(self, weights, data):
        w = np.array(weights)
        nparts = data.draw(st.integers(1, len(w)))
        exact = cut_positions_weighted(w, nparts)
        assert exact[0] == 0 and exact[-1] == len(w)
        assert (np.diff(exact) >= 1).all()
        # Loads come from one prefix-sum array on both sides, so the
        # comparison is exact, with no tolerance.
        top = segment_loads(w, exact).max()
        assert top <= segment_loads(w, previous_cut(w, nparts)).max()
        assert top <= segment_loads(w, greedy_cut(w, nparts)).max()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=64,
        ),
        st.data(),
    )
    def test_max_load_is_the_dp_optimum(self, weights, data):
        """The maximum load equals the O(P K^2) dynamic program's
        optimum, exactly, for K <= 64.  Constant weights are left out:
        they take the equal-count cut, optimal in exact arithmetic but
        not always to the last bit of the rounded prefix sums."""
        assume(len(set(weights)) > 1)
        w = np.array(weights)
        nparts = data.draw(st.integers(1, len(w)))
        exact = cut_positions_weighted(w, nparts)
        assert segment_loads(w, exact).max() == dp_optimum(w, nparts)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        st.integers(1, 500),
        st.data(),
    )
    def test_uniform_weights_give_uniform_cuts(self, value, n, data):
        nparts = data.draw(st.integers(1, n))
        np.testing.assert_array_equal(
            cut_positions_weighted(np.full(n, value), nparts),
            cut_positions_uniform(n, nparts),
        )


class TestUniformReduction:
    @pytest.mark.parametrize("n,nparts", [(12, 4), (13, 4), (96, 7), (5, 5)])
    def test_uniform_weights_reduce_exactly(self, n, nparts):
        """The golden reduction: constant weights give bit-identical cuts
        to the unweighted path — any constant, not just 1.0."""
        for value in (1.0, 0.25, 3.7):
            w = np.full(n, value)
            np.testing.assert_array_equal(
                cut_positions_weighted(w, nparts),
                cut_positions_uniform(n, nparts),
            )

    def test_near_uniform_does_not_shortcut(self):
        """An epsilon perturbation must take the weighted path (the
        reduction is exact equality, not a tolerance)."""
        w = np.ones(10)
        w[3] += 1e-9
        bounds = cut_positions_weighted(w, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert (np.diff(bounds) >= 1).all()


class TestRefinedPartitions:
    def test_sfc_partition_benefits_from_refinement(self):
        """End-to-end: the shipped sfc_partition uses the exact cut, so
        a hotspot weight field is well balanced."""
        from repro.partition import sfc_partition

        rng = np.random.default_rng(0)
        w = np.exp(rng.normal(0.0, 1.0, size=96)) + 0.1
        p = sfc_partition(4, 8, weights=w)
        loads = np.bincount(p.assignment, weights=w, minlength=8)
        assert load_balance(loads) < 0.15


#: The rows where the earlier cut was measured furthest from optimal
#: (storm at K=1536 on 384 parts reached 1.59x the optimal max load),
#: plus the coarse rows where it was close: (scenario, ne, nparts).
CERTIFIED_ROWS = [
    ("storm", 16, 96),
    ("storm", 16, 384),
    ("daynight", 16, 384),
    ("daynight", 16, 768),
    ("amr", 16, 384),
    ("storm", 8, 96),
    *[(s, 64, p) for s in ("storm", "amr", "daynight") for p in (16, 96)],
]


class TestOptimalCertificate:
    @pytest.mark.parametrize("scenario,ne,nparts", CERTIFIED_ROWS)
    def test_served_cut_is_optimal(self, scenario, ne, nparts):
        """At steps 0-9 and every tenth step of each row (``amr`` stays
        uniform until step 13), the greedy probe just below the served
        cut's maximum load cannot cover the curve: no cut into
        ``nparts`` segments has a smaller maximum load."""
        from repro.partition import sfc_partition
        from repro.partition.sfc import curve_key_fn
        from repro.scenarios import scenario_weights

        k = 6 * ne * ne
        position = curve_key_fn(ne)(np.arange(k)).astype(np.int64)
        for step in sorted({*range(10), *range(0, 100, 10)}):
            w = scenario_weights(scenario, ne, step)
            owner = np.empty(k, dtype=np.int64)
            owner[position] = sfc_partition(ne, nparts, weights=w).assignment
            along = np.empty(k)
            along[position] = w
            assert (np.diff(owner) >= 0).all()
            bounds = np.searchsorted(owner, np.arange(nparts + 1))
            assert (np.diff(bounds) >= 1).all()
            assert is_optimal(along, bounds), f"step {step}"
