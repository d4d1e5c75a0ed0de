"""Query-aware token subset selection.

Two complementary stages: a bipartite redundancy filter over the token
set, and a greedy determinant-maximizing pass over a relevance-scaled
similarity kernel. `script_select` fuses both under a fixed budget.
"""

from .analysis import (GridShape, ModelProfile, flops_estimate,
                       local_entropy_map, mean_neighbor_similarity,
                       similarity_by_distance_profile)
from .fusion import (baseline_diversity_only, baseline_random,
                     baseline_topk_relevance, script_select)
from .gsp import (DEFAULT_GAMMA, DEFAULT_TAU, BipartiteRedundancyGraph,
                  RedundancyScores, bipartite_split, build_graph, gsp_select,
                  redundancy_scores)
from .qcsp import (DppKernel, GreedyState, KernelConsumedError, build_kernel,
                   greedy_map, qcsp_select)
from .similarity import (InputError, Prepared, cosine_similarity_matrix,
                         l2_normalize_rows, mean_pool, min_max_normalize,
                         prepare, relevance_scores)
from .tensor_io import (MatrixFormatError, Selection, SelectionFormatError,
                        read_matrix, read_selection, write_matrix,
                        write_selection)

__version__ = "0.1.0"

__all__ = [
    "BipartiteRedundancyGraph",
    "DppKernel",
    "DEFAULT_GAMMA",
    "DEFAULT_TAU",
    "GreedyState",
    "GridShape",
    "InputError",
    "KernelConsumedError",
    "MatrixFormatError",
    "ModelProfile",
    "Prepared",
    "RedundancyScores",
    "Selection",
    "SelectionFormatError",
    "baseline_diversity_only",
    "baseline_random",
    "baseline_topk_relevance",
    "bipartite_split",
    "build_graph",
    "build_kernel",
    "cosine_similarity_matrix",
    "flops_estimate",
    "greedy_map",
    "gsp_select",
    "l2_normalize_rows",
    "local_entropy_map",
    "mean_neighbor_similarity",
    "mean_pool",
    "min_max_normalize",
    "prepare",
    "qcsp_select",
    "read_matrix",
    "read_selection",
    "redundancy_scores",
    "relevance_scores",
    "script_select",
    "similarity_by_distance_profile",
    "write_matrix",
    "write_selection",
    "__version__",
]
