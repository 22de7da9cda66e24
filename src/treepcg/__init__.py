"""Laplacian linear solvers preconditioned by spanning trees.

Core objects: weighted graphs with implicit Laplacians, spanning trees with
exact stretch computation, a linear-time tree-Laplacian solver, PCG with
iteration-bound predictors, and a dense spectral oracle that certifies the
trace identity, eigenvalue tail counts, and the iteration bounds at desk
scale.
"""
from .graphs import (
    DEFAULT_DENSE_CAP,
    GeneratorSpec,
    GraphError,
    WeightedGraph,
    dense_laplacian,
    generate,
    is_connected,
    laplacian_apply,
    parse_generator_spec,
    read_edge_list,
    read_vector,
    write_edge_list,
    write_vector,
)
from .trees import (
    SpanningTree,
    StretchReport,
    TreeError,
    low_stretch_heuristic_tree,
    max_weight_spanning_tree,
    path_resistance,
    stretch_report,
    tree_spans,
)
from .pcg import (
    IterationBound,
    PcgConfig,
    PcgDivergenceError,
    PcgError,
    PcgOutcome,
    TreeSolveError,
    factor,
    iteration_bound,
    pcg_solve,
    pseudo_solve,
    stretch_only_bound,
)
from .spectral import (
    SpectralSummary,
    dense_tree_laplacian,
    exact_qul,
    exact_spectrum_bound,
    generalized_spectrum,
    tail_count,
)

TreeFactorization = SpanningTree    # factor(t) is t: the tree is its own factorization

__all__ = [
    "DEFAULT_DENSE_CAP",
    "GeneratorSpec",
    "GraphError",
    "IterationBound",
    "PcgConfig",
    "PcgDivergenceError",
    "PcgError",
    "PcgOutcome",
    "SpanningTree",
    "SpectralSummary",
    "StretchReport",
    "TreeError",
    "TreeFactorization",
    "TreeSolveError",
    "WeightedGraph",
    "dense_laplacian",
    "dense_tree_laplacian",
    "exact_qul",
    "exact_spectrum_bound",
    "factor",
    "generalized_spectrum",
    "generate",
    "is_connected",
    "iteration_bound",
    "laplacian_apply",
    "low_stretch_heuristic_tree",
    "max_weight_spanning_tree",
    "parse_generator_spec",
    "path_resistance",
    "pcg_solve",
    "pseudo_solve",
    "read_edge_list",
    "read_vector",
    "stretch_report",
    "tail_count",
    "stretch_only_bound",
    "tree_spans",
    "write_edge_list",
    "write_vector",
]

__version__ = "0.1.0"
