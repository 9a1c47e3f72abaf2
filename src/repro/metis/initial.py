"""Initial bisection of the coarsest graph of the multilevel scheme.

*Greedy graph growing* (GGGP, METIS's pmetis default): grow one side
from a seed vertex, always absorbing the frontier vertex whose
absorption decreases the prospective cut the most, until the side
reaches its weight target; several trials with different seeds keep
the best cut.  The growth runs in the compiled ``rb_initial`` kernel;
its Python oracle lives in ``tests/metis/reference_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from .._native import LIB as _NATIVE
from .._native import MAX_BOUND, check
from ..graphs.csr import CSRGraph
from .rng import Streams

__all__ = ["greedy_graph_growing"]


#: Default number of GGGP growth trials.
NTRIALS = 4


def greedy_graph_growing(
    graph: CSRGraph, target_left: int, seed: int = 0, ntrials: int = NTRIALS
) -> np.ndarray:
    """GGGP bisection.

    Args:
        graph: Graph to bisect (need not be connected; leftover
            components are swept into the growing side by weight).
        target_left: Desired total vertex weight of side 0.
        seed: Base seed; each trial perturbs it.
        ntrials: Number of independent growths; best cut wins.

    Returns:
        ``(n,)`` int array of sides (0 or 1).
    """
    n = graph.nvertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # The stream only feeds the trial-1.. start vertices.
    starts = np.empty(ntrials, dtype=np.int64)
    starts[0] = -1  # trial 0: a pseudo-peripheral seed
    starts[1:] = Streams([seed]).integers([n], ntrials - 1)[0]
    out = np.empty(n, dtype=np.int64)
    check(_NATIVE.rb_initial(
        n, *graph.addresses(), target_left, starts.ctypes.data, ntrials,
        MAX_BOUND, out.ctypes.data,
    ))
    return out
