"""Affine equidistants and the contact classes of weakly parallel points.

Three engines, usable separately or chained end to end:

Exact (``germ_algebra``, ``normal_forms``)
    Truncated-jet arithmetic over the rationals: map-germs, local
    algebras, Hilbert functions, Ke-codimension; the catalogue of simple
    contact classes, the recognizer that names a polynomial germ, and the
    enumeration of stable singularity types for a dimension pair (n, q).
Numerical (``geometry_engine``)
    Parametrized curves and surfaces, location of weakly parallel pairs,
    equidistant tracing, cusp and node detection.
Bridge (``contact_lab``, plus ``classify_pair``)
    Weakly parallel pairs of submanifold germs in adapted graph charts, the
    lambda-contact map they induce and the three local rings attached to
    it; ``classify_pair`` hands Taylor jets of traced points to the exact
    engine through the same jet kernel, with float coefficients.

Importing the package imports none of these modules.  Each public name
loads its defining module the first time it is used, so only the numerical
engine imports numpy, and code that uses the exact engine alone never does.

The ``equidistants`` console script exposes the same pipeline as
subcommands (enumerate, trace, classify, contact, ringdims, mu).
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "contact_lab": (
        "GraphPair", "RingDims", "contact_map", "graphpair_from_dict",
        "graphpair_from_json", "graphpair_to_dict", "graphpair_to_json",
        "lambda_contact_from_pair", "local_ring_dims", "pi_tilde_local",
        "random_graph_pair", "reduce_to_theta",
    ),
    "geometry_engine": (
        "Annotation", "EquidistantBranch", "FrameAlignmentError",
        "ImmersionError", "PairCloud", "PairPoint", "ParametricManifold",
        "classify_pair", "detect_singularities", "ellipse",
        "find_parallel_pairs", "fourier_oval", "graph_surface",
        "manifold_from_dict", "manifold_from_json", "sampled_curve",
        "sampled_surface", "taylor_germ_at_pair", "torus",
        "trace_equidistant", "write_branches_csv", "write_branches_svg",
    ),
    "germ_algebra": (
        "INFINITE", "REGULAR", "InfiniteCodimensionError",
        "LocalAlgebraReport", "MapGerm", "corank", "format_poly",
        "hilbert_prefix", "ke_codimension", "ke_quotient_hilbert",
        "local_algebra", "mapgerm_from_dict", "mapgerm_from_json",
        "mapgerm_to_dict", "mapgerm_to_json", "random_k_move",
        "rank0_reduce",
    ),
    "normal_forms": (
        "DomainError", "GermClass", "NotNiceDimensionsError", "StableList",
        "StableRow", "UnrecognizedGermError", "catalogue",
        "format_stable_table", "is_nice_dimensions", "normal_form",
        "parse_label", "recognize", "stable_singularities",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Load a public name from its defining module on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)
