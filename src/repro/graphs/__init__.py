"""Graph substrate: CSR graphs, traversal, METIS-format I/O."""

from .csr import CSRGraph, graph_from_edges, mesh_graph
from .generators import caterpillar, grid_2d, random_geometric, torus_2d
from .io import read_metis_graph, write_metis_graph
from .traversal import (
    bfs_levels,
    connected_components,
    is_connected,
)

__all__ = [
    "CSRGraph",
    "bfs_levels",
    "caterpillar",
    "connected_components",
    "graph_from_edges",
    "grid_2d",
    "is_connected",
    "mesh_graph",
    "random_geometric",
    "read_metis_graph",
    "torus_2d",
    "write_metis_graph",
]
