"""Query-aware token subset selection.

Two complementary stages: a bipartite redundancy filter over the token
set, and a greedy determinant-maximizing pass over a relevance-scaled
similarity kernel. `script_select` fuses both under a fixed budget;
`select` runs any of MODES, the fusion, a stage alone or a baseline.
"""

from .analysis import (GridShape, ModelProfile, flops_estimate,
                       local_entropy_map, mean_neighbor_similarity,
                       similarity_by_distance_profile)
from .fusion import MODES, script_select, select
from .gsp import (DEFAULT_GAMMA, DEFAULT_TAU, BipartiteRedundancyGraph,
                  RedundancyScores, build_graph, gsp_select, redundancy_scores)
from .qcsp import GreedyState, kernel_matrix
from .similarity import (InputError, Prepared, l2_normalize_rows, mean_pool,
                         min_max_normalize, prepare, relevance_scores)
from .tensor_io import (MatrixFormatError, Selection, SelectionFormatError,
                        read_matrix, read_selection, write_matrix,
                        write_selection)

__version__ = "0.1.0"

__all__ = [
    "BipartiteRedundancyGraph",
    "DEFAULT_GAMMA",
    "DEFAULT_TAU",
    "GreedyState",
    "GridShape",
    "InputError",
    "MODES",
    "MatrixFormatError",
    "ModelProfile",
    "Prepared",
    "RedundancyScores",
    "Selection",
    "SelectionFormatError",
    "build_graph",
    "flops_estimate",
    "gsp_select",
    "kernel_matrix",
    "l2_normalize_rows",
    "local_entropy_map",
    "mean_neighbor_similarity",
    "mean_pool",
    "min_max_normalize",
    "prepare",
    "read_matrix",
    "read_selection",
    "redundancy_scores",
    "relevance_scores",
    "script_select",
    "select",
    "similarity_by_distance_profile",
    "write_matrix",
    "write_selection",
    "__version__",
]
