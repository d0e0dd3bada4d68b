"""tanbun: chart-local tangent-functor computations and verification
of differential-bundle structure on coordinate spaces."""

from .expr import (
    Box, CheckConfig, DEFAULT_CONFIG, DenominatorNearZero,
    DimensionMismatch, EqVerdict, Expr, ExprError, ParseError, SmoothMap,
    compose, con, concat_maps, cube, equal_maps, eval_batch, eval_exact,
    eval_map, eval_mp, identity_map, jac_eval_batch, jacobian_exprs,
    parse_map, projection, simplify_map, smooth_map, to_source,
)
from .report import CheckReport, LawResult, Refused, Verdict
from .jet import (
    AXIOM_CATALOG, DerivativePathsDisagree, ImplicitMap, JetPoint,
    NewtonDiverged, STANDARD_STRUCTS, TruncElem, apply_map, axiom_ids,
    check_all_axioms, check_axiom, jac_point, jacobian, prolong_implicit,
    pushforward, solve_least_norm, struct_map, tangent_map, tangent_of,
)
from .bundle import (
    BundleMorphism, BundleSpec, NotWellTyped, bump_bundle,
    check_additive_laws, check_morphism, check_predifferential,
    conjugated_bundle, fibre_affine_decomposition, fibre_matched_tuples,
    induce_addition, scale_through_lambda, tangent_bundle, trivial_bundle,
    well_typed_tuples,
)
from .universal import (
    CommutingSquare, check_pullback, cockett_square, combined_square,
    cross_check_equivalence, is_submersion_on, rosicky_certificate,
    rosicky_square, strong_square,
)
from .splitting import (
    PulledBackTangent, biproduct_check, check_splitting, chi, chi_checks,
    lift_on_pullback, non_idempotent_demo, pulled_back_tangent,
    splitting_pair,
)
from .vb import (
    VectorBundleSpec, check_module_laws, morphism_transport_check, phi, psi,
    roundtrip_check, transport_demo_morphisms,
)
from .corpus import (
    CorpusEntry, CorpusResult, UnknownCorpusEntry, corpus_entry,
    corpus_list, corpus_run, corpus_run_all, run_suites,
)

__version__ = "0.1.0"
