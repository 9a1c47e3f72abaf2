"""Compiled random streams that draw what NumPy's ``default_rng`` draws.

Every random number of the METIS drivers — coarsening visit orders,
greedy-graph-growing trial starts, K-way sweep orders, random-matching
claims — comes from a :class:`Streams` object: PCG64 streams seeded
through NumPy's ``SeedSequence``, run by the ``rng_*`` kernels of
``repro/_kernels.c``.  Stream ``i`` of ``Streams(seeds)`` draws exactly
what NumPy's ``default_rng(seeds[i])`` draws from the same calls
(``permutation(n)``, ``integers(high, size=k)``), so the partitions are
those the NumPy generators gave.  A batch of streams is seeded in one
kernel call and draws in one more.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

from .._native import LIB as _NATIVE
from .._native import RNG_SLOTS, check

__all__ = ["Streams"]

_MASK32 = 0xFFFFFFFF


def _seed_words(seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each seed's little-endian 32-bit words (``[0]`` for 0), back to
    back, and the word offsets: ``SeedSequence``'s entropy.

    Raises:
        ValueError: A seed is negative.
    """
    words: list[int] = []
    offsets = [0]
    for seed in seeds:
        s = operator.index(seed)
        if s < 0:
            raise ValueError(f"expected non-negative integer seed, got {s}")
        words.append(s & _MASK32)
        s >>= 32
        while s:
            words.append(s & _MASK32)
            s >>= 32
        offsets.append(len(words))
    return np.array(words, dtype=np.uint32), np.array(offsets, dtype=np.int64)


class Streams:
    """One random stream per seed; each draw advances every stream.

    Stream ``i`` carries its state from call to call, as one
    ``Generator`` does: ``s.permutations([n])`` twice gives
    ``rng.permutation(n)`` twice of NumPy's ``rng = default_rng(seed)``.

    Raises:
        ValueError: A seed is negative (as ``default_rng`` raises).
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        words, offsets = _seed_words(seeds)
        self.nstreams = len(seeds)
        self._state = np.empty((self.nstreams, RNG_SLOTS), dtype=np.uint64)
        self._state_p = self._state.ctypes.data
        check(_NATIVE.rng_seed(
            self.nstreams, words.ctypes.data, offsets.ctypes.data, self._state_p
        ))

    def permutations(self, sizes: Sequence[int] | np.ndarray) -> np.ndarray:
        """Stream ``i``'s ``permutation(sizes[i])``, concatenated (int64)."""
        sizes = np.ascontiguousarray(sizes, dtype=np.int64)
        if sizes.shape != (self.nstreams,):
            raise ValueError(f"need {self.nstreams} sizes, got shape {sizes.shape}")
        out = np.empty(max(int(sizes.sum()), 0), dtype=np.int64)
        check(_NATIVE.rng_permutations(
            self.nstreams, self._state_p, sizes.ctypes.data, out.ctypes.data
        ))
        return out

    def integers(self, highs: Sequence[int] | np.ndarray, size: int) -> np.ndarray:
        """Row ``i``: stream ``i``'s ``integers(highs[i], size=size)``
        (int64, ``(nstreams, size)``), for ``1 <= highs[i] <= 2**32``."""
        highs = np.ascontiguousarray(highs, dtype=np.int64)
        if highs.shape != (self.nstreams,):
            raise ValueError(f"need {self.nstreams} bounds, got shape {highs.shape}")
        out = np.empty((self.nstreams, max(size, 0)), dtype=np.int64)
        check(_NATIVE.rng_integers(
            self.nstreams, self._state_p, highs.ctypes.data, size, out.ctypes.data
        ))
        return out
