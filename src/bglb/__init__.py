"""Verification toolkit for balanced simplicial spheres: exact flag and
h-vector combinatorics, homology certificates, face-ring Artinian
reductions over a large prime field, and injectivity certificates for
multiplication maps, behind one CLI."""

from ._version import __version__
from .complexes import (ColoredComplex, Coloring, ImproperColoringError, InvalidComplexError,
                        NotAFaceError, SimplicialComplex, colored, colored_link, empty_complex,
                        f_vector, flag_vectors, from_dict, from_facets, h_vector, link,
                        link_with_labels, rank_select, to_dict, validate_coloring)
from .generators import (FamilySpec, barycentric_subdivision, build, cross_polytope,
                         default_suite, default_suite_specs, simplex_boundary,
                         stacked_cross_polytope, suspension)
from .homology import (DEFAULT_FIELD, BettiTable, FieldSpec, boundary_matrix, is_cohen_macaulay,
                       is_gorenstein_star, reduced_betti)
from .inequalities import (BalancedGVector, CheckResult, balanced_g, equality_analysis,
                           flag_symmetry, g_bar_at, verify_link_sum, verify_nonnegativity,
                           verify_rank_selected, verify_selection_sum)
from .report import ALL_CHECKS, GENERIC_DIM_CAP, run_battery, run_instance, to_csv, to_text
from .sr_algebra import (GradedBasis, LefschetzCertificate, LinearForm, colored_lsop,
                         draw_verified_lsop, graded_dimension, ideal_piece, lefschetz_injective,
                         monomial_basis, multigraded_series_check, multiplication_injective,
                         quotient_hilbert, random_forms, verify_lsop)

__all__ = [
    "ColoredComplex", "Coloring", "ImproperColoringError", "InvalidComplexError",
    "NotAFaceError", "SimplicialComplex", "colored", "colored_link", "empty_complex",
    "f_vector", "flag_vectors", "from_dict", "from_facets", "h_vector", "link",
    "link_with_labels", "rank_select", "to_dict", "validate_coloring",
    "FamilySpec", "barycentric_subdivision", "build", "cross_polytope", "default_suite",
    "default_suite_specs", "simplex_boundary", "stacked_cross_polytope", "suspension",
    "DEFAULT_FIELD", "BettiTable", "FieldSpec", "boundary_matrix", "is_cohen_macaulay",
    "is_gorenstein_star", "reduced_betti",
    "BalancedGVector", "CheckResult", "balanced_g", "equality_analysis", "flag_symmetry",
    "g_bar_at", "verify_link_sum", "verify_nonnegativity", "verify_rank_selected",
    "verify_selection_sum",
    "ALL_CHECKS", "GENERIC_DIM_CAP", "run_battery", "run_instance", "to_csv", "to_text",
    "GradedBasis", "LefschetzCertificate", "LinearForm", "colored_lsop", "draw_verified_lsop",
    "graded_dimension", "ideal_piece", "lefschetz_injective", "monomial_basis",
    "multigraded_series_check", "multiplication_injective", "quotient_hilbert", "random_forms",
    "verify_lsop",
]
