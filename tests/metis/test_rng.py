"""The compiled random streams draw what NumPy's ``default_rng`` draws.

``repro.metis.rng.Streams`` replaces every ``np.random.default_rng`` of
the METIS drivers; the partitions stay the NumPy-seeded ones only if
each stream is bit-identical to the installed NumPy's generator, over
the seed ranges SeedSequence hashes differently (one 32-bit word, two,
more) and across successive draws from one stream (the buffered half
of a 64-bit output carries over between calls).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metis.rng import Streams

#: One, two and three-or-more 32-bit seed words.
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**200),
)

#: A permutation size, or an ``integers`` bound with its draw count.
DRAWS = st.one_of(
    st.tuples(st.just("permutation"), st.integers(0, 5000)),
    st.tuples(
        st.just("integers"),
        st.one_of(st.integers(1, 5000), st.integers(1, 2**32)),
        st.integers(0, 20),
    ),
)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.lists(DRAWS, min_size=1, max_size=6))
# A bound of 3 * 2^30 rejects a quarter of Lemire's draws.
@example(7, [("integers", 3 * 2**30, 20), ("permutation", 5), ("integers", 2**32, 3)])
def test_one_stream_draws_what_default_rng_draws(seed, draws):
    ours, numpy_rng = Streams([seed]), np.random.default_rng(seed)
    for draw in draws:
        if draw[0] == "permutation":
            got, want = ours.permutations([draw[1]]), numpy_rng.permutation(draw[1])
        else:
            _, high, k = draw
            got, want = ours.integers([high], k)[0], numpy_rng.integers(high, size=k)
        np.testing.assert_array_equal(got, want)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(SEEDS, st.integers(0, 300)), max_size=12))
def test_a_batch_draws_what_one_generator_per_seed_draws(streams):
    seeds = [s for s, _ in streams]
    sizes = [m for _, m in streams]
    batch = Streams(seeds)
    want = [np.random.default_rng(s).permutation(m) for s, m in streams]
    np.testing.assert_array_equal(
        batch.permutations(sizes), np.concatenate([np.empty(0, np.int64), *want])
    )
    highs = [m + 1 for m in sizes]
    got = batch.integers(highs, 3)
    for row, (seed, m), high in zip(got, streams, highs):
        numpy_rng = np.random.default_rng(seed)
        numpy_rng.permutation(m)
        np.testing.assert_array_equal(row, numpy_rng.integers(high, size=3))


def test_bad_draws_raise_like_numpy():
    with pytest.raises(ValueError, match="non-negative"):
        Streams([-5])
    s = Streams([1])
    with pytest.raises(ValueError):
        s.permutations([-1])
    with pytest.raises(ValueError):
        s.integers([0], 3)
    with pytest.raises(ValueError):
        s.integers([2**32 + 1], 3)
    with pytest.raises(ValueError):
        s.permutations([1, 2])
