"""Exact Ollivier-Ricci curvature of the basis exchange walk on matroids.

Everything is computed in exact rational arithmetic: the down-up walk kernel,
the exchange-graph metric, optimal transport between one-step distributions,
and the closed-form lower and upper bounds with their witnessing couplings.
"""

__version__ = "0.1.0"

from .errors import (
    BadRational,
    CurvatroidError,
    DegenerateGraph,
    EmptyBasisFamily,
    InvalidBasisArgument,
    InvalidRank,
    NotABasis,
    NotAMatroid,
    NotAdjacent,
    ParseError,
    RankMismatch,
    TooLarge,
    UnbalancedMarginals,
    UnknownElement,
    UnknownType,
    ValidationResult,
)
from .matroid import (
    ENUMERATION_LIMIT,
    ExplicitSpec,
    GraphicSpec,
    LinearSpec,
    Mask,
    Matroid,
    MatroidSpec,
    NamedSpec,
    UniformSpec,
    basis_sort_key,
    bits,
    build_matroid,
    validate_exchange_axiom,
)
from .catalog import CATALOG_NAMES, build_named
from .symmetry import automorphism_generators
from .walk import (
    Distribution,
    basis_graph,
    transition_distribution,
)
from .transport import (
    TransportProblem,
    verify_transport_certificate,
    wasserstein1,
)
from .curvature import (
    DownstepCoupling,
    DropWitness,
    GlobalReport,
    PairFrame,
    PairReport,
    canonical_pairs,
    compute_pair_report,
    compute_pair_witness,
    downstep_coupling_table,
    downstep_lb_pair,
    exact_pair_curvature,
    global_curvature,
    theorem_lb_global,
    theorem_ub_pair,
    theorem_ub_values,
)
from .fileio import (
    approx_decimal,
    load_input,
    parse_matroid_file,
    parse_matroid_obj,
    parse_rational,
)

__all__ = [
    "__version__",
    # errors
    "BadRational", "CurvatroidError", "DegenerateGraph", "EmptyBasisFamily",
    "InvalidBasisArgument", "InvalidRank", "NotABasis", "NotAMatroid",
    "NotAdjacent", "ParseError", "RankMismatch", "TooLarge",
    "UnbalancedMarginals", "UnknownElement", "UnknownType", "ValidationResult",
    # matroids
    "ENUMERATION_LIMIT", "ExplicitSpec", "GraphicSpec", "LinearSpec", "Mask",
    "Matroid", "MatroidSpec", "NamedSpec", "UniformSpec", "basis_sort_key",
    "bits", "build_matroid", "validate_exchange_axiom",
    "CATALOG_NAMES", "build_named",
    "automorphism_generators",
    # walk
    "Distribution", "basis_graph", "transition_distribution",
    # transport
    "TransportProblem", "verify_transport_certificate", "wasserstein1",
    # curvature
    "DownstepCoupling", "DropWitness", "GlobalReport",
    "PairFrame", "PairReport", "canonical_pairs",
    "compute_pair_report", "compute_pair_witness", "downstep_coupling_table",
    "downstep_lb_pair", "exact_pair_curvature", "global_curvature",
    "theorem_lb_global", "theorem_ub_pair", "theorem_ub_values",
    # file input and serialization
    "approx_decimal", "load_input", "parse_matroid_file",
    "parse_matroid_obj", "parse_rational",
]
