"""Unit tests for multilevel bisection and recursive bisection (RB)."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cubesphere import cubed_sphere_mesh
from repro.graphs import mesh_graph
from repro.metis.bisection import multilevel_bisection, recursive_bisection
from repro.telemetry import telemetry_session
from repro.partition.metrics import evaluate_partition, load_balance
from tests.conftest import grid_graph, two_cliques


def cut_of(graph, side):
    u, v, w = graph.edge_array()
    return int(w[side[u] != side[v]].sum())


class TestMultilevelBisection:
    def test_balanced_split(self, graph8):
        side = multilevel_bisection(graph8, target_left=192, seed=0)
        assert (side == 0).sum() == 192

    def test_cut_quality_on_grid(self):
        g = grid_graph(16, 16)
        side = multilevel_bisection(g, target_left=128, seed=0)
        # A straight cut costs 16; allow slack but reject garbage.
        assert cut_of(g, side) <= 32

    def test_finds_clique_split(self):
        g = two_cliques(10)
        side = multilevel_bisection(g, target_left=10, seed=0)
        assert cut_of(g, side) == 1

    def test_bad_target_rejected(self, graph4):
        with pytest.raises(ValueError, match="target_left"):
            multilevel_bisection(graph4, target_left=0)
        with pytest.raises(ValueError, match="target_left"):
            multilevel_bisection(graph4, target_left=96)

    def test_deterministic(self, graph4):
        a = multilevel_bisection(graph4, target_left=48, seed=42)
        b = multilevel_bisection(graph4, target_left=48, seed=42)
        np.testing.assert_array_equal(a, b)


class TestRecursiveBisection:
    @pytest.mark.parametrize("nparts", [2, 3, 4, 6, 8, 12, 24])
    def test_valid_partitions(self, graph4, nparts):
        p = recursive_bisection(graph4, nparts, seed=0)
        p.validate()
        assert p.nparts == nparts
        assert p.method == "rb"

    def test_strict_ubfactor_gives_perfect_balance(self, graph4):
        p = recursive_bisection(graph4, 8, ubfactor=1.001, seed=0)
        assert load_balance(p.part_sizes()) == 0.0

    def test_non_power_of_two(self, graph4):
        p = recursive_bisection(graph4, 6, ubfactor=1.001, seed=0)
        assert p.part_sizes().tolist() == [16] * 6

    def test_nparts_equals_nvertices(self):
        g = grid_graph(4, 4)
        p = recursive_bisection(g, 16, seed=0)
        assert (p.part_sizes() == 1).all()

    def test_single_part(self, graph4):
        p = recursive_bisection(graph4, 1, seed=0)
        assert (p.assignment == 0).all()

    def test_cut_beats_random(self, graph8):
        from repro.partition.block import random_partition

        rb = evaluate_partition(graph8, recursive_bisection(graph8, 16, seed=0))
        rnd = evaluate_partition(graph8, random_partition(384, 16, seed=0))
        assert rb.weighted_edgecut < rnd.weighted_edgecut / 2

    def test_errors(self, graph4):
        with pytest.raises(ValueError):
            recursive_bisection(graph4, 0)
        with pytest.raises(ValueError):
            recursive_bisection(graph4, 97)

    def test_table2_regime_imbalance(self, graph8):
        """With the METIS-4 default slack, RB at 2 elements/processor
        shows the mild imbalance the paper's Table 2 reports."""
        p = recursive_bisection(graph8, 192, ubfactor=1.01, seed=0)
        lb = load_balance(p.part_sizes())
        assert 0.0 <= lb <= 0.34


class TestNativeSpans:
    """The level-synchronous path records each stage once per level."""

    STAGES = ("subgraph", "coarsen", "initial", "refine", "uncoarsen")

    def _spans(self, graph, nparts):
        with telemetry_session() as session:
            recursive_bisection(graph, nparts, ubfactor=1.01)
        return session.tracer.spans

    def test_k1536_into_384_parts(self):
        graph = mesh_graph(cubed_sphere_mesh(16))
        spans = self._spans(graph, 384)
        levels = math.ceil(math.log2(384))  # depths holding >= 2 parts
        for name in self.STAGES:
            recorded = [s for s in spans if s.name == name]
            assert 1 <= len(recorded) <= levels, name
            assert all(s.args["groups"] >= 1 for s in recorded)
        # The last level splits 128 groups of 3 parts, every one at once.
        assert max(s.args["groups"] for s in spans if s.name == "refine") == 128

    def test_stages_recorded_without_coarsening(self):
        # K=24 groups never exceed the coarsest size, yet every stage
        # still reports (the profile tables list coarsen and refine).
        spans = self._spans(mesh_graph(cubed_sphere_mesh(2)), 6)
        assert {s.name for s in spans} >= set(self.STAGES)


#: Bad inputs of the compiled driver and the ValueError each raises.
#: ``path(w)`` is a path graph with vertex weights ``w``.
BAD_INPUTS = {
    "recursive_bisection(path([1] * 100), 0)": "need 1 <= nparts <= nvertices",
    "recursive_bisection(path([1] * 100), 101)": "need 1 <= nparts <= nvertices",
    "recursive_bisection(path([1] * 100), 4, ubfactor=math.nan)":
        "ubfactor must be finite, got nan",
    "multilevel_bisection(path([1] * 100), 50, ubfactor=math.inf)":
        "ubfactor must be finite, got inf",
    "recursive_bisection(path([1] * 100), 4, seed=-1)":
        "expected non-negative integer seed, got -1",
    # total * left = 2^55 at depth 0.
    "recursive_bisection(path([2**52] * 4), 4)":
        "vertex weights too large for exact split targets",
    # The int64 total wraps to -2^63 (as NumPy's sum does).
    "recursive_bisection(path([2**61] * 4), 4)":
        "target_left must be strictly between 0 and total weight",
    "recursive_bisection(path([0] * 100), 4)":
        "target_left must be strictly between 0 and total weight",
    # Depth 1: two groups of weight 1 and 2 parts, target rint(0.5) = 0.
    "recursive_bisection(path([0] * 98 + [1, 1]), 4)":
        "target_left must be strictly between 0 and total weight",
    "multilevel_bisection(path([1] * 100), 0)":
        "target_left must be strictly between 0 and total weight",
    "multilevel_bisection(path([1] * 100), 100)":
        "target_left must be strictly between 0 and total weight",
}

_BAD_INPUT_SCRIPT = """
import json, math, sys
import numpy as np
from repro.graphs import graph_from_edges
from repro.metis.bisection import multilevel_bisection, recursive_bisection

def path(weights):
    n = len(weights)
    edges = np.array([(i, i + 1) for i in range(n - 1)], dtype=np.int64)
    return graph_from_edges(n, edges, vweights=np.array(weights, dtype=np.int64))

out = {}
for call in json.loads(sys.argv[1]):
    try:
        eval(call)
        out[call] = None
    except ValueError as exc:
        out[call] = str(exc)
print(json.dumps(out))
"""


def test_bad_input_raises_without_crashing():
    """Each bad input is a ValueError from ``rb_partition``'s input
    validation or its kernel's error codes, in a child interpreter that
    survives them all (a crash in the kernel would kill it)."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]
    )}
    run = subprocess.run(
        [sys.executable, "-c", _BAD_INPUT_SCRIPT, json.dumps(list(BAD_INPUTS))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == BAD_INPUTS
