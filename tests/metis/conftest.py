"""Fixtures shared by the METIS suites: the compiled kernels and their
Python oracles behind one interface."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.metis import (
    fm_refine_bisection,
    greedy_kway_refine,
    heavy_edge_matching,
    part_graph,
)

from . import reference_kernels

#: The compiled kernels, through the package's public functions.
COMPILED = SimpleNamespace(
    part_graph=lambda graph, nparts, method, seed=0: part_graph(
        graph, nparts, method, seed=seed
    ).assignment,
    heavy_edge_matching=heavy_edge_matching,
    fm_refine_bisection=fm_refine_bisection,
    greedy_kway_refine=greedy_kway_refine,
)


@pytest.fixture(params=["c", "oracle"])
def kernels(request):
    """Run once on the compiled kernels and once on their oracles."""
    return COMPILED if request.param == "c" else reference_kernels
