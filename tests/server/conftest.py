"""Fixtures shared by the server suites."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.partition.base import Partition
from repro.partition.registry import Partitioner, register, unregister

SLOW_S = 0.6  # stub compute time: long enough to overlap requests under


def _slow_build(problem) -> Partition:
    time.sleep(SLOW_S)
    assignment = np.arange(problem.k, dtype=np.int64) % problem.nparts
    return Partition(assignment, nparts=problem.nparts, method="slowstub")


@pytest.fixture()
def slowstub():
    """A partitioner that takes SLOW_S seconds, visible to forked workers.

    Register it before the server starts: the pool forks its workers
    then, and they inherit the registry as it stands.
    """
    register(
        Partitioner(
            name="slowstub",
            build=_slow_build,
            description="deliberately slow test stub",
            family="test",
        )
    )
    yield "slowstub"
    unregister("slowstub")
