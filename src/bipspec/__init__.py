"""Bipartite graph spectra, quotient-matrix bounds, vertex splits, and
expander codes over GF(2)."""

from .bigraph import (
    BipartiteGraph,
    DegreeProfile,
    build,
    complete_bipartite,
    edge_connectivity,
    path_graph,
    random_tree,
    read_edge_list,
    write_edge_list,
)
from .eccode import (
    DistanceReport,
    LinearCode,
    bit_flip_decode,
    codewords,
    construct_expander_code,
    distance_bounds,
    min_distance,
    parity_check_from_graph,
    write_alist,
    write_pchk,
)
from .expansion import (
    ExpansionReport,
    LosslessParams,
    lossless_parameters,
    vertex_expansion,
)
from .spectra import (
    BoundReport,
    InterlacingReport,
    Quotient2x2,
    SpectrumReport,
    SymmetricMatrix,
    adjacency_matrix,
    bipartite_quotient,
    bound_suite,
    interlacing_check,
    laplacian_matrix,
    lifted_matrix_spectrum,
    signless_laplacian_matrix,
    symmetric_eigenvalues,
)
from .vsplit import (
    ConnectivityCriterionReport,
    measure_split,
    split_warnings,
    theorem_r1_check,
    theorem_r2_check,
    vertex_split,
)

__version__ = "0.1.0"
