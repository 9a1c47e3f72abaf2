"""From-scratch multilevel graph partitioner (METIS reproduction).

Implements the algorithms of Karypis & Kumar that the paper uses as its
baseline: recursive bisection (RB), multilevel K-way minimizing edgecut
(KWAY), and the total-communication-volume K-way variant (TV).
"""

from .api import METIS_METHODS, part_graph
from .bisection import multilevel_bisection, recursive_bisection
from .coarsen import CoarseLevel, coarsen_to, contract
from .initial import greedy_graph_growing
from .kway import multilevel_kway
from .matching import heavy_edge_matching, random_matching
from .refine import balance_constraint, fm_refine_bisection, greedy_kway_refine

__all__ = [
    "CoarseLevel",
    "METIS_METHODS",
    "balance_constraint",
    "coarsen_to",
    "contract",
    "fm_refine_bisection",
    "greedy_graph_growing",
    "greedy_kway_refine",
    "heavy_edge_matching",
    "multilevel_bisection",
    "multilevel_kway",
    "part_graph",
    "random_matching",
    "recursive_bisection",
]
