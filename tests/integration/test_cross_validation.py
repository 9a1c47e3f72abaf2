"""Cross-validation against networkx and scipy on shared quantities."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graphs import (
    connected_components,
    grid_2d,
    mesh_graph,
    random_geometric,
)
from repro.metis import part_graph
from repro.partition import Partition, evaluate_partition, sfc_partition


def to_networkx(graph):
    u, v, w = graph.edge_array()
    gx = nx.Graph()
    gx.add_nodes_from(range(graph.nvertices))
    gx.add_weighted_edges_from(zip(u.tolist(), v.tolist(), w.tolist()))
    return gx


class TestGraphEquivalence:
    def test_components_match(self):
        g = random_geometric(80, 0.06, seed=3, ensure_connected=False)
        ours = connected_components(g)
        theirs = list(nx.connected_components(to_networkx(g)))
        assert len(set(ours.tolist())) == len(theirs)
        for comp in theirs:
            labels = {int(ours[v]) for v in comp}
            assert len(labels) == 1

    def test_cut_size_matches_networkx(self, graph8):
        p = part_graph(graph8, 8, "kway", seed=0)
        gx = to_networkx(graph8)
        side_a = set(np.flatnonzero(p.assignment == 0).tolist())
        side_b = set(range(graph8.nvertices)) - side_a
        nx_cut = nx.cut_size(gx, side_a, side_b, weight="weight")
        # Our weighted cut of the induced 2-way split.
        two_way = Partition(
            (p.assignment != 0).astype(np.int64), nparts=2
        )
        q = evaluate_partition(graph8, two_way)
        assert q.weighted_edgecut == nx_cut

    def test_degree_distribution_matches(self, mesh8):
        g = mesh_graph(mesh8)
        gx = to_networkx(g)
        ours = sorted(g.degrees().tolist())
        theirs = sorted(d for _, d in gx.degree())
        assert ours == theirs

    def test_algebraic_connectivity_positive(self):
        from tests.graphs.spectral import fiedler_vector, laplacian_matrix

        g = grid_2d(7, 7)
        lap = laplacian_matrix(g).toarray()
        vals = np.sort(np.linalg.eigvalsh(lap))
        f = fiedler_vector(g)
        # Rayleigh quotient of the Fiedler vector equals lambda_2.
        rq = f @ lap @ f / (f @ f)
        assert rq == pytest.approx(vals[1], rel=1e-6)


class TestPartitionQualityCrossChecks:
    def test_sfc_segments_are_bfs_compact(self, mesh8, graph8):
        """Each SFC part's diameter (in hops) stays small — the
        geometric compactness that drives the paper's results —
        validated with networkx eccentricity."""
        p = sfc_partition(8, 48)
        gx = to_networkx(graph8)
        diameters = []
        for part in range(0, 48, 6):
            members = np.flatnonzero(p.assignment == part).tolist()
            sub = gx.subgraph(members)
            diameters.append(nx.diameter(sub))
        # 8 elements per part: a compact patch has diameter <= 4.
        assert max(diameters) <= 4

    def test_metis_cut_close_to_networkx_greedy_modularity_scale(self, graph8):
        """Sanity scale check: our multilevel cut on K=384 at 8 parts
        is well below the total edge weight and nontrivially above the
        theoretical floor."""
        p = part_graph(graph8, 8, "kway", seed=0)
        q = evaluate_partition(graph8, p)
        total_w = int(graph8.eweights.sum()) // 2
        assert q.weighted_edgecut < 0.25 * total_w
        assert q.weighted_edgecut > 0
