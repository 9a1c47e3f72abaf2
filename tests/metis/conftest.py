"""Fixtures shared by the METIS suites: run a test on both kernel paths."""

from __future__ import annotations

import pytest

import repro.graphs.csr as csr_mod
import repro.metis.bisection as bisection_mod
import repro.metis.coarsen as coarsen_mod
import repro.metis.initial as initial_mod
import repro.metis.matching as matching_mod
import repro.metis.refine as refine_mod

#: Modules whose ``_NATIVE`` gate selects C kernels vs pure Python
#: (``bisection``: the level-synchronous driver vs the depth-first one).
KERNEL_MODULES = (
    csr_mod, bisection_mod, coarsen_mod, initial_mod, matching_mod, refine_mod,
)


@pytest.fixture(params=["kernels", "pure-python"])
def kernel_mode(request, monkeypatch):
    """Run once per kernel path; ``pure-python`` forces the fallback."""
    if request.param == "pure-python":
        for mod in KERNEL_MODULES:
            monkeypatch.setattr(mod, "_NATIVE", None)
    return request.param
