"""Affine equidistants and the contact classes of weakly parallel points.

Three engines, usable separately or chained end to end:

Exact (``germ_algebra``, ``normal_forms``)
    Truncated-jet arithmetic over the rationals: map-germs, local
    algebras, Hilbert functions, Ke-codimension, miniversal bases; the
    catalogue of simple contact classes, the recognizer that names a
    polynomial germ, and the enumeration of stable singularity types for a
    dimension pair (n, q).
Numerical (``geometry_engine``)
    Parametrized curves and surfaces, location of weakly parallel pairs,
    equidistant tracing, cusp and node detection.
Bridge (``contact_lab``, plus ``classify_pair``)
    Weakly parallel pairs of submanifold germs in adapted graph charts, the
    lambda-contact map they induce and the three local rings attached to
    it; ``classify_pair`` hands Taylor jets of traced points to the exact
    engine through the same jet kernel, with float coefficients.

The ``equidistants`` console script exposes the same pipeline as
subcommands (enumerate, trace, classify, contact, ringdims, mu).
"""

from .contact_lab import (
    GraphPair,
    RingDims,
    contact_map,
    graphpair_from_dict,
    graphpair_from_json,
    graphpair_to_dict,
    graphpair_to_json,
    lambda_contact_from_pair,
    lambda_reflection,
    local_ring_dims,
    pi_tilde_local,
    random_graph_pair,
    reduce_to_theta,
    swap_pair,
)
from .geometry_engine import (
    Annotation,
    EquidistantBranch,
    FrameAlignmentError,
    ImmersionError,
    PairPoint,
    ParametricManifold,
    classify_pair,
    densify_branch,
    detect_singularities,
    ellipse,
    find_parallel_pairs,
    fourier_oval,
    graph_surface,
    manifold_from_dict,
    manifold_from_json,
    parallelism,
    projection_rank_residuals,
    sampled_curve,
    sampled_surface,
    tangent_frame,
    taylor_germ_at_pair,
    torus,
    trace_equidistant,
    write_branches_csv,
    write_branches_svg,
)
from .germ_algebra import (
    INFINITE,
    REGULAR,
    InfiniteCodimensionError,
    LocalAlgebraReport,
    MapGerm,
    corank,
    format_poly,
    hilbert_prefix,
    ke_codimension,
    ke_quotient_hilbert,
    local_algebra,
    mapgerm_from_dict,
    mapgerm_from_json,
    mapgerm_to_dict,
    mapgerm_to_json,
    miniversal_basis,
    random_k_move,
    rank0_reduce,
)
from .normal_forms import (
    DomainError,
    GermClass,
    NotNiceDimensionsError,
    StableList,
    StableRow,
    UnrecognizedGermError,
    catalogue,
    format_stable_table,
    is_nice_dimensions,
    normal_form,
    parse_label,
    recognize,
    stable_singularities,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "DomainError",
    "EquidistantBranch",
    "FrameAlignmentError",
    "GermClass",
    "GraphPair",
    "INFINITE",
    "ImmersionError",
    "InfiniteCodimensionError",
    "LocalAlgebraReport",
    "MapGerm",
    "NotNiceDimensionsError",
    "PairPoint",
    "ParametricManifold",
    "REGULAR",
    "RingDims",
    "StableList",
    "StableRow",
    "UnrecognizedGermError",
    "catalogue",
    "classify_pair",
    "contact_map",
    "corank",
    "densify_branch",
    "detect_singularities",
    "ellipse",
    "find_parallel_pairs",
    "format_poly",
    "format_stable_table",
    "fourier_oval",
    "graph_surface",
    "graphpair_from_dict",
    "graphpair_from_json",
    "graphpair_to_dict",
    "graphpair_to_json",
    "hilbert_prefix",
    "is_nice_dimensions",
    "ke_codimension",
    "ke_quotient_hilbert",
    "lambda_contact_from_pair",
    "lambda_reflection",
    "local_algebra",
    "local_ring_dims",
    "manifold_from_dict",
    "manifold_from_json",
    "mapgerm_from_dict",
    "mapgerm_from_json",
    "mapgerm_to_dict",
    "mapgerm_to_json",
    "miniversal_basis",
    "normal_form",
    "parallelism",
    "parse_label",
    "pi_tilde_local",
    "projection_rank_residuals",
    "random_graph_pair",
    "random_k_move",
    "rank0_reduce",
    "recognize",
    "reduce_to_theta",
    "sampled_curve",
    "sampled_surface",
    "stable_singularities",
    "swap_pair",
    "tangent_frame",
    "taylor_germ_at_pair",
    "torus",
    "trace_equidistant",
    "write_branches_csv",
    "write_branches_svg",
]
