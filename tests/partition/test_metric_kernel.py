"""The compiled ``part_metrics`` pass against its NumPy oracle.

:mod:`tests.partition.reference_metrics` is the library's earlier NumPy
evaluation.  Every metric of :mod:`repro.partition.metrics` must equal
it bit for bit on random graphs, and the mesh's neighbour table must
give the same metrics as the mesh's CSR graph for every registered
method.  Bad kernel inputs must raise ``ValueError``, never crash.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.csr import graph_from_edges, table_adjacency
from repro.partition import registry
from repro.partition.base import Partition
from repro.partition.metrics import (
    edgecut,
    evaluate_partition,
    part_metrics,
    weighted_edgecut,
)
from repro.partition.pipeline import graph_stage, mesh_stage, partition_stage
from tests.partition import reference_metrics as ref


def assert_same_quality(got, want) -> None:
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype, name
            np.testing.assert_array_equal(other, value, err_msg=name)
        else:
            assert type(other) is type(value) and other == value, name


@st.composite
def graphs_and_partitions(draw):
    """A symmetric graph (maybe edgeless, with isolated vertices and
    weights up to 2^40) and an assignment that may leave parts empty."""
    n = draw(st.integers(0, 40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
        max_size=4 * n,
    ))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    big = st.integers(1, 2**40)
    eweights = draw(st.lists(big, min_size=len(edges), max_size=len(edges)))
    vweights = draw(st.lists(big, min_size=n, max_size=n))
    graph = graph_from_edges(
        n, np.array(edges, dtype=np.int64).reshape(-1, 2), eweights, vweights
    )
    nparts = draw(st.integers(1, 8))
    used = draw(st.integers(1, nparts))  # ids >= used are never assigned
    assignment = draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n))
    return graph, Partition(np.array(assignment, dtype=np.int64), nparts, "probe")


@settings(max_examples=300, deadline=None)
@given(graphs_and_partitions())
@example((graph_from_edges(1, np.zeros((0, 2))), Partition(np.zeros(1), 1)))
@example((graph_from_edges(3, np.zeros((0, 2))), Partition(np.arange(3), 5)))
@example((  # cut weights near 2^62: the send and cut sums wrap as NumPy's do
    graph_from_edges(4, [[0, 1], [1, 2], [2, 3], [0, 3]], [2**62 + 5, 2**62, 2**63 - 1, 3]),
    Partition(np.array([0, 1, 0, 1]), 2),
))
def test_kernel_matches_oracle(case):
    graph, part = case
    want = ref.evaluate_partition(graph, part)
    assert_same_quality(evaluate_partition(graph, part), want)
    assert edgecut(graph, part) == ref.edgecut(graph, part)
    assert weighted_edgecut(graph, part) == ref.weighted_edgecut(graph, part)


def test_vertex_weight_sums_wrap():
    """Per-part vertex weights are the int64 sums, wrapped (no overflow
    trap); the oracle's float64 sums are exact only below 2^53."""
    vweights = [2**62, 2**62 + 1, 2**63 - 1, 7]
    graph = graph_from_edges(4, [[0, 1], [2, 3]], vweights=vweights)
    parts, _, _ = part_metrics(graph, [0, 0, 0, 1], 2)
    wrapped = (sum(vweights[:3]) + 2**63) % 2**64 - 2**63
    assert parts[1].tolist() == [wrapped, 7]


def _cases():
    """``(method, ne, nparts, weighted)``: every registered method at
    every admissible Ne <= 12, then samples at Ne 16 and 64."""
    for ne in range(1, 13):
        k = 6 * ne * ne
        for spec in registry.specs():
            if spec.check_ne is None or spec.check_ne(ne):
                for nparts in sorted({min(7, k), max(1, k // 5)}):
                    yield spec.name, ne, nparts, False
                    if spec.weighted:
                        yield spec.name, ne, nparts, True
    yield from [
        ("sfc", 16, 96, False), ("kway", 16, 96, False), ("rcb", 16, 24, False),
        ("sfc", 64, 384, True), ("random", 64, 96, False), ("block", 64, 1536, False),
    ]


@pytest.mark.parametrize("ne", [*range(1, 13), 16, 64])
def test_table_equals_graph_equals_oracle(ne):
    table = table_adjacency(mesh_stage(ne))
    graph = graph_stage(ne)
    for method, case_ne, nparts, weighted in _cases():
        if case_ne != ne:
            continue
        k = 6 * ne * ne
        weights = 1.0 + (np.arange(k) * 7919 % 13) if weighted else None
        part = partition_stage(method, ne, nparts, weights=weights)
        want = ref.evaluate_partition(graph, part)
        assert_same_quality(evaluate_partition(graph, part), want)
        assert_same_quality(evaluate_partition(table, part), want)


#: Bad inputs of :func:`part_metrics` and the ValueError each raises.
#: ``g(...)`` overrides one array of a valid 3-vertex path graph.
_SHAPE = "need 1-D arrays"
_RANGE = "CSR offsets must ascend"
BAD_INPUTS = {
    "part_metrics(g(), [0, 0], 1)": _SHAPE,
    "part_metrics(g(), [0, 0, 0, 0], 1)": _SHAPE,
    "part_metrics(g(), [[0, 0, 0]], 1)": _SHAPE,
    "part_metrics(g(indptr=[0, 1, 3]), [0, 0, 0], 1)": _SHAPE,
    "part_metrics(g(eweights=[1, 1, 1]), [0, 0, 0], 1)": _SHAPE,
    "part_metrics(g(vweights=[1, 1]), [0, 0, 0], 1)": _SHAPE,
    "part_metrics(g(), [0, 0, 0], 0)": "nparts must be >= 1, got 0",
    "part_metrics(g(), [0, 0, 0], -3)": "nparts must be >= 1, got -3",
    "part_metrics(g(), [0, 1, 2], 2)": _RANGE,
    "part_metrics(g(), [0, -1, 0], 2)": _RANGE,
    "part_metrics(g(indices=[1, 0, 3, 1]), [0, 0, 0], 1)": _RANGE,
    "part_metrics(g(indptr=[0, 4, 2, 4]), [0, 0, 0], 1)": _RANGE,
    "part_metrics(g(indptr=[0, 1, 3, 9]), [0, 0, 0], 1)": _RANGE,
    "part_metrics(g(indptr=[-1, 1, 3, 4]), [0, 0, 0], 1)": _RANGE,
}

_BAD_INPUT_SCRIPT = """
import json, sys
from types import SimpleNamespace
import numpy as np
from repro.partition.metrics import part_metrics

def g(**arrays):
    path = dict(indptr=[0, 1, 3, 4], indices=[1, 0, 2, 1],
                eweights=[1, 1, 1, 1], vweights=[1, 1, 1])
    return SimpleNamespace(**{**path, **arrays})

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
    """Each bad input is a ValueError from the wrapper's checks or the
    kernel's error code, in a child interpreter that survives them all
    (a crash in the kernel would kill it)."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]
    )}
    run = subprocess.run(
        [sys.executable, "-c", _BAD_INPUT_SCRIPT, json.dumps(list(BAD_INPUTS))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    for call, want in BAD_INPUTS.items():
        assert (got[call] or "").startswith(want), (call, got[call])
