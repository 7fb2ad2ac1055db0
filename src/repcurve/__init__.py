"""Exact arithmetic for commuting pairs of order-p matrices over small
field extensions, the module families they generate, and the graded
invariants of the two-parameter cover family the modules come from.

Everything is integer-table arithmetic: no floats, no external CAS.
"""

from .errors import RepcurveError
from .ff import (FieldCtx, FieldElem, alpha_from_beta, beta_from_alpha,
                 ctx_new, default_ctx, enumerate_nonprime, find_irreducible,
                 frobenius, pth_root)
from .linalg import Mat, Subspace, invert, kernel, rank, rref, solve
from .poly import Poly1, Poly2, trace_polynomial
from .kmod import (HModule, IndecDecision, IsoDecision, Profile,
                   augmentation_ideal, ddeg, ddeg_prime, digits_p, direct_sum,
                   dual, end_dim, fixed_space, generic_jordan_type, hom_dim,
                   hom_space, is_indecomposable, is_isomorphic, jordan_scan,
                   jordan_type_at, module_from_json, module_to_json,
                   profile, quotient, regular_module, s_p,
                   s_filtration, sub_generated, sub_module_on, trivial_module,
                   v_d, v_dr)
from .curvefam import (CurveParams, GradedModule, RamificationProfile,
                       curve_params, dd, default_grid, dr_graded, genus,
                       hodge_check, holo_graded, index_I, index_J,
                       ramification_profile, rr_basis, semigroup_gap_count,
                       valuation_table)
from .suites import ARTIFACT_VERSION as __version__, run_suite, SUITE_NAMES

__all__ = [
    "RepcurveError",
    "FieldCtx", "FieldElem", "alpha_from_beta", "beta_from_alpha", "ctx_new",
    "default_ctx", "enumerate_nonprime", "find_irreducible", "frobenius",
    "pth_root",
    "Mat", "Subspace", "invert", "kernel", "rank", "rref", "solve",
    "Poly1", "Poly2", "trace_polynomial",
    "HModule", "IndecDecision", "IsoDecision", "Profile",
    "augmentation_ideal", "ddeg", "ddeg_prime", "digits_p", "direct_sum",
    "dual", "end_dim", "fixed_space", "generic_jordan_type", "hom_dim",
    "hom_space",
    "is_indecomposable", "is_isomorphic", "jordan_scan", "jordan_type_at",
    "module_from_json", "module_to_json", "profile",
    "quotient", "regular_module", "s_p", "s_filtration", "sub_generated",
    "sub_module_on", "trivial_module", "v_d", "v_dr",
    "CurveParams", "GradedModule", "RamificationProfile", "curve_params",
    "dd", "default_grid", "dr_graded", "genus", "hodge_check", "holo_graded",
    "index_I", "index_J", "ramification_profile", "rr_basis",
    "semigroup_gap_count", "valuation_table",
    "run_suite", "SUITE_NAMES",
    "__version__",
]
