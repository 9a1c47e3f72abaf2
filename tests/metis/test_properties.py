"""Property-based tests for the full METIS-style pipeline.

Hypothesis generates random connected weighted graphs; every partition
the pipeline emits must satisfy the structural invariants regardless of
topology, weights, seed, or part count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph, graph_from_edges
from repro.metis import part_graph
from repro.metis.bisection import multilevel_bisection, recursive_bisection
from repro.metis.coarsen import contract
from repro.metis.refine import balance_constraint, greedy_kway_refine
from repro.partition.metrics import evaluate_partition

from tests.conftest import grid_graph

from . import reference_kernels as oracle


@st.composite
def connected_graphs(draw) -> CSRGraph:
    """Random connected graph: a spanning path plus random chords."""
    n = draw(st.integers(min_value=4, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    perm = rng.permutation(n)
    edges = {(min(int(a), int(b)), max(int(a), int(b)))
             for a, b in zip(perm, perm[1:])}
    extra = draw(st.integers(min_value=0, max_value=3 * n))
    for _ in range(extra):
        a, b = rng.integers(n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    earr = np.array(sorted(edges), dtype=np.int64)
    ew = rng.integers(1, 10, size=len(earr)).astype(np.int64)
    vw = rng.integers(1, 5, size=n).astype(np.int64)
    return graph_from_edges(n, earr, ew, vw)


class TestPipelineInvariants:
    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(), st.integers(2, 6), st.integers(0, 99))
    def test_rb_invariants(self, graph, nparts, seed):
        nparts = min(nparts, graph.nvertices)
        p = part_graph(graph, nparts, "rb", seed=seed)
        assert p.nvertices == graph.nvertices
        assert (p.part_sizes() > 0).all()  # RB never leaves empties
        q = evaluate_partition(graph, p)
        assert 0 <= q.lb_weight < 1
        assert q.weighted_edgecut <= int(graph.eweights.sum()) // 2

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(), st.integers(2, 6), st.integers(0, 99))
    def test_kway_invariants(self, graph, nparts, seed):
        nparts = min(nparts, graph.nvertices)
        p = part_graph(graph, nparts, "kway", seed=seed)
        assert p.nvertices == graph.nvertices
        sizes = p.part_sizes()
        assert sizes.sum() == graph.nvertices
        # Weight cap holds for every non-empty part.
        cap = balance_constraint(graph.total_vweight(), nparts, 1.03)
        weights = p.part_weights(graph.vweights)
        # Projection from coarse levels can exceed the cap only by one
        # coarse atom; with our vertex weights <= 4 and pair
        # contraction, the worst atom is bounded by 2 * max vweight.
        slack = 2 * int(graph.vweights.max())
        assert weights.max() <= cap + slack

    @settings(max_examples=15, deadline=None)
    @given(connected_graphs(), st.integers(0, 9))
    def test_determinism(self, graph, seed):
        a = part_graph(graph, 4, "rb", seed=seed)
        b = part_graph(graph, 4, "rb", seed=seed)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_rb_quality_not_worse_than_strided_on_meshes(self):
        """RB beats the naive strided split on real mesh graphs.

        Deterministic replacement for a hypothesis property: on tiny
        adversarial random graphs RB can legitimately lose to a
        strided split (the multilevel heuristic gives no per-instance
        guarantee), but on the structured cubed-sphere meshes the
        paper studies it must win in aggregate and never badly lose.
        """
        from repro.cubesphere import cubed_sphere_mesh
        from repro.graphs import mesh_graph
        from repro.partition.block import strided_partition
        from repro.partition.metrics import weighted_edgecut

        rb_total = 0
        strided_total = 0
        for ne in (4, 6, 8):
            graph = mesh_graph(cubed_sphere_mesh(ne))
            for nparts in (4, 7):
                rb_cut = weighted_edgecut(
                    graph, part_graph(graph, nparts, "rb", seed=0)
                )
                strided_cut = weighted_edgecut(
                    graph, strided_partition(graph.nvertices, nparts)
                )
                assert rb_cut <= 1.5 * strided_cut
                rb_total += rb_cut
                strided_total += strided_cut
        assert rb_total < strided_total


class TestMetricConsistency:
    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(), st.integers(2, 5), st.integers(0, 50))
    def test_volume_is_twice_cut_weight(self, graph, nparts, seed):
        """With per-edge exchange, directed volume = 2x cut weight."""
        nparts = min(nparts, graph.nvertices)
        p = part_graph(graph, nparts, "rb", seed=seed)
        q = evaluate_partition(graph, p)
        assert q.total_volume_points == 2 * q.weighted_edgecut

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(), st.integers(2, 5))
    def test_eq1_load_balance_consistency(self, graph, nparts):
        nparts = min(nparts, graph.nvertices)
        p = part_graph(graph, nparts, "rb", seed=0)
        q = evaluate_partition(graph, p)
        sizes = q.nelemd.astype(float)
        expect = (sizes.max() - sizes.mean()) / sizes.max()
        assert q.lb_nelemd == pytest.approx(expect)


@st.composite
def kway_inputs(draw) -> tuple[CSRGraph, np.ndarray, int]:
    """A connected graph, a part count and a start assignment.

    ``skew`` piles that share of the vertices onto part 0, so heavily
    unbalanced starts reach the hard-overflow (negative gain) branch;
    a drawn flag moves one vertex to a part id at or past ``nparts``.
    """
    graph = draw(connected_graphs())
    n = graph.nvertices
    nparts = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    assignment = rng.integers(0, nparts, size=n)
    skew = draw(st.sampled_from([0.0, 0.6, 0.9]))
    assignment[rng.random(n) < skew] = 0
    if draw(st.booleans()):
        assignment[draw(st.integers(0, n - 1))] = nparts + draw(st.integers(0, 2))
    return graph, assignment.astype(np.int64), nparts


_RING6 = graph_from_edges(
    6, np.array([[i, (i + 1) % 6] for i in range(6)], dtype=np.int64)
)


class TestKwayKernelParity:
    """The C sweep kernel and its Python oracle refine to the same array."""

    @settings(max_examples=100, deadline=None)
    @given(
        kway_inputs(),
        st.sampled_from(["cut", "volume"]),
        st.sampled_from([1.0, 1.03, 1.1]),
        st.sampled_from([0, 1, 8]),
        st.integers(0, 99),
    )
    @example(
        (_RING6, np.array([0, 0, 0, 0, 1, 5], dtype=np.int64), 2),
        "cut", 1.03, 8, 0,
    )
    def test_c_kernel_matches_python(
        self, inputs, objective, ubfactor, max_passes, seed
    ):
        graph, assignment, nparts = inputs
        args = (graph, assignment, nparts, ubfactor, objective, max_passes, seed)
        native = greedy_kway_refine(*args)
        python = oracle.greedy_kway_refine(*args)
        np.testing.assert_array_equal(native, python)
        assert native.dtype == python.dtype


@st.composite
def rb_graphs(draw) -> CSRGraph:
    """Random weighted graph for the recursive-bisection parity property.

    Up to 160 vertices, so the first levels coarsen (above 64).  Either
    connected (a spanning path plus chords) or split into up to four
    components with no edges between them (isolated vertices and
    edgeless graphs included).  ``heavy`` vertices weigh a sizable share
    of the total: such atoms overshoot the per-side caps, which forces
    the rebalance pass, and leave a side with fewer vertices than parts,
    which forces the order-based fallback split.
    """
    n = draw(st.integers(min_value=2, max_value=160))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    pairs = []
    if draw(st.booleans()):
        perm = rng.permutation(n)
        pairs += list(zip(perm[:-1].tolist(), perm[1:].tolist()))
        label = np.zeros(n, dtype=np.int64)
    else:
        label = rng.integers(0, draw(st.integers(1, 4)), size=n)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        a, b = rng.integers(n, size=2).tolist()
        if a != b and label[a] == label[b]:
            pairs.append((a, b))
    edges = np.array(sorted({(min(a, b), max(a, b)) for a, b in pairs}), dtype=np.int64)
    ew = rng.integers(1, 10, size=len(edges)).astype(np.int64)
    vw = rng.integers(1, 5, size=n).astype(np.int64)
    heavy = draw(st.sampled_from([0, 1, 3]))
    if heavy:
        atoms = rng.choice(n, size=min(heavy, n), replace=False)
        vw[atoms] = rng.integers(n, 4 * n + 1, size=len(atoms))
    return graph_from_edges(n, edges.reshape(-1, 2), ew, vw)


@st.composite
def rb_inputs(draw) -> tuple[CSRGraph, int]:
    """A :func:`rb_graphs` graph and a part count in ``[1, n]``, ``n``
    and ``n - 1`` drawn often."""
    graph = draw(rb_graphs())
    n = graph.nvertices
    nparts = draw(st.one_of(st.integers(1, n), st.sampled_from([n, max(1, n - 1)])))
    return graph, nparts


#: Seeds of the parity property.  Group seeds are ``seed + depth * 7919
#: + first`` and coarsening round ``lvl`` adds ``lvl``, which the kernel
#: adds to the seed's 32-bit words with carry: the ranges just below
#: 2^32 and 2^64 make those sums carry into a new word, and the wide
#: range gives seeds of up to six words.
RB_SEEDS = st.one_of(
    st.integers(0, 99),
    st.integers(2**32 - 8000, 2**32 - 1),
    st.integers(2**64 - 8000, 2**64 - 1),
    st.integers(0, 2**160),
)

#: 625 vertices coarsen in four rounds (lvl 0-3) at depth 0.
_GRID = (grid_graph(25, 25), 7)


class TestRecursiveBisectionKernelParity:
    """The compiled RB driver and the depth-first Python oracle agree."""

    @settings(max_examples=120, deadline=None)
    @given(rb_inputs(), st.sampled_from([1.0, 1.001, 1.01, 1.1]), RB_SEEDS)
    @example(_GRID, 1.01, 2**32 - 3)  # round 3 of depth 0 reaches 2^32
    @example(_GRID, 1.0, 2**64 - 5)
    @example(_GRID, 1.1, 2**96 + 7)
    def test_native_matches_python_driver(self, inputs, ubfactor, seed):
        graph, nparts = inputs
        native = recursive_bisection(graph, nparts, ubfactor, seed).assignment
        python = oracle.recursive_bisection(graph, nparts, ubfactor, seed)
        np.testing.assert_array_equal(native, python)

    @settings(max_examples=60, deadline=None)
    @given(rb_graphs(), st.data(), st.sampled_from([1.0, 1.001, 1.01, 1.1]), RB_SEEDS)
    def test_multilevel_bisection_matches_python(self, graph, data, ubfactor, seed):
        """``rb_bisect``, the driver's level with one group."""
        target = data.draw(st.integers(1, graph.total_vweight() - 1), label="target")
        native = multilevel_bisection(graph, target, ubfactor, seed)
        python = oracle.multilevel_bisection(graph, target, ubfactor, seed)
        np.testing.assert_array_equal(native, python)


@st.composite
def matchings(draw) -> tuple[CSRGraph, np.ndarray]:
    """A graph and a random matching: any vertex pairs, edges or not."""
    graph = draw(rb_graphs())
    n = graph.nvertices
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    match = np.arange(n, dtype=np.int64)
    order = rng.permutation(n)
    npairs = draw(st.integers(0, n // 2))
    a, b = order[:npairs], order[npairs : 2 * npairs]
    match[a], match[b] = b, a
    return graph, match


class TestContractKernelParity:
    """The C ``contract`` kernel and its NumPy oracle build the same level."""

    @settings(max_examples=100, deadline=None)
    @given(matchings())
    def test_c_contract_matches_numpy(self, inputs):
        graph, match = inputs
        native = contract(graph, match)
        python = oracle.contract(graph, match)
        for name in ("indptr", "indices", "eweights", "vweights"):
            got, want = getattr(native.graph, name), getattr(python.graph, name)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        np.testing.assert_array_equal(native.fine_to_coarse, python.fine_to_coarse)
        assert native.fine_to_coarse.dtype == python.fine_to_coarse.dtype


class TestSubgraphKernelParity:
    """``CSRGraph.subgraph`` (``rb_extract``) and its oracle agree."""

    @settings(max_examples=100, deadline=None)
    @given(rb_graphs(), st.integers(0, 2**31))
    def test_c_subgraph_matches_numpy(self, graph, pick):
        rng = np.random.default_rng(pick)
        ids = np.flatnonzero(rng.random(graph.nvertices) < rng.random())
        native, mapping = graph.subgraph(ids)
        python = oracle.subgraph(graph, ids)
        np.testing.assert_array_equal(mapping, ids)
        for name in ("indptr", "indices", "eweights", "vweights"):
            got, want = getattr(native, name), getattr(python, name)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        assert native.total_vweight() == int(python.vweights.sum())
