"""Every compiled kernel the loader declares is called by its wrapper.

A Python wrapper that stops calling its kernel (a "de-kernelized" hot
path, say one that re-grows a Python copy of it) still passes every
golden and oracle test — it gives the same answer, only slower.  This
test wraps the loaded library in a
counting proxy in every module that gates on it, runs a small workload
through the public entry points, and requires one call or more of each
symbol in :data:`repro._native.SIGNATURES`.
"""

from __future__ import annotations

import collections
import sys

import numpy as np

import repro.cubesphere.curve as curve_mod
import repro.seam.dss as dss_mod
import repro.seam.parallel as parallel_mod
from repro import _native
from repro.cubesphere import cubed_sphere_mesh
from repro.graphs import mesh_graph
from repro.metis import (
    fm_refine_bisection,
    greedy_graph_growing,
    multilevel_bisection,
    part_graph,
    recursive_bisection,
)
from repro.partition import sfc_partition
from repro.seam import build_geometry
from repro.server.http import decode_json_body, json_body
from repro.sfc.keys import curve_keys

class _CountingLib:
    """Forwards to the kernel library, counting calls per symbol."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.calls: collections.Counter[str] = collections.Counter()

    def __getattr__(self, name: str):
        fn = getattr(self._lib, name)

        def call(*args):
            self.calls[name] += 1
            return fn(*args)

        return call


def _gated_modules() -> list[tuple[object, str]]:
    """(module, attribute) pairs that hold the loaded library."""
    return [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if name.startswith("repro.") and mod is not None
        for attr in ("_NATIVE", "LIB")
        if getattr(mod, attr, None) is _native.LIB
    ]


def test_every_declared_kernel_is_called(monkeypatch):
    proxy = _CountingLib(_native.LIB)
    gated = _gated_modules()
    assert {mod.__name__ for mod, _ in gated} >= {
        "repro.graphs.csr", "repro.metis.bisection", "repro.metis.coarsen",
        "repro.metis.initial", "repro.metis.matching", "repro.metis.refine",
        "repro.metis.rng",
        "repro.seam.dss", "repro.seam.parallel", "repro.server.http",
        "repro.sfc.keys",
    }
    for mod, attr in gated:
        monkeypatch.setattr(mod, attr, proxy)

    graph = mesh_graph(cubed_sphere_mesh(4))
    for method in ("rb", "kway", "tv"):
        part_graph(graph, 8, method)
    # K=96 sits below the K-way coarsening target (128 vertices), so one
    # K=216 request runs kway's own coarsening (HEM claims + contract).
    part_graph(mesh_graph(cubed_sphere_mesh(6)), 4, "kway")
    # The single-graph wrappers of the extraction, growth and
    # refinement kernels that rb_partition runs internally.
    side = multilevel_bisection(graph, 48)
    greedy_graph_growing(graph, 48)
    fm_refine_bisection(graph, side, 49, 49)
    graph.subgraph(np.flatnonzero(side))
    geom = build_geometry(2, 4)
    field = np.random.default_rng(0).standard_normal(geom.jac.shape)
    dss_mod.DSSOperator(geom).apply(field)
    parallel_mod.PartitionedDSS(geom, sfc_partition(2, 3)).apply(field)
    curve_mod.element_keys(4)
    curve_keys(np.arange(4), np.arange(4), schedule="HH")
    json_body({"assignment": np.arange(4, dtype=np.int64)})
    decode_json_body(b'{"old_assignment": [0, 1, 2, 3]}')

    missing = sorted(set(_native.SIGNATURES) - set(proxy.calls))
    assert not missing, f"declared kernels never called: {missing}"


def test_recursive_bisection_is_one_kernel_call(monkeypatch):
    """The recursion, its stages and its streams all run inside
    ``rb_partition``: no per-depth or per-round Python loop calls back
    into the library."""
    graph = mesh_graph(cubed_sphere_mesh(8))
    proxy = _CountingLib(_native.LIB)
    for mod, attr in _gated_modules():
        monkeypatch.setattr(mod, attr, proxy)
    recursive_bisection(graph, 96, ubfactor=1.01)
    assert proxy.calls == {"rb_partition": 1}
