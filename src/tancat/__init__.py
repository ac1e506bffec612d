"""Exact tangent-category, differential-bundle and Cartesian differential
structure over polynomial semiring models, with an exact dual-number cross-check.

The package centers on three layers:

- poly/parser/scalars: exact multivariate polynomial maps over the rationals
  or the natural-number semiring, with a small expression grammar.
- cdc/model/bundles/diffobj/fibration: the structural maps (tangent functor,
  projection, zero, addition, lift, flip), differential bundles with their
  lift-universality witness and bracket, differential objects, and the
  simple fibration whose fibres are again tangent models.
- suites/report/cli: named executable check suites over all of the above,
  plus numeric-consistency, which checks D against exact dual numbers
  (numeric.dual_eval) and those against exact difference quotients
  (numeric.fd_check).
"""

from .bundles import (
    BundleMor,
    DiffBundle,
    bracket,
    is_additive,
    is_bundle_morphism,
    is_linear,
    load_bundle,
    make_bundle,
    mu_characterization,
    parse_bundle_text,
    pullback_bundle,
    pullback_mor,
    standard_bundle,
    tangent_bundle_of,
    tangent_of_bundle,
    trivial_bundle,
    verify_bundle,
    whitney_pair,
    whitney_proj,
    whitney_sum,
)
from .cdc import PolyCDModel, PolyTangentModel, cdc_D, cdc_T, cdc_ell, cdc_flip
from .diffobj import (
    DiffObject,
    bundle_from_diffobj,
    canonical_diffobj,
    check_cds,
    derived_D,
    diffobj_from_bundle,
    verify_diffobj,
)
from .errors import (
    DimensionMismatch,
    NotABundleMorphism,
    PolyParseError,
    PreconditionFailure,
    SemiringViolation,
)
from .fibration import (
    FibreTangentModel,
    SimpleCDModel,
    SimpleMor,
    SimpleObj,
    simple_D,
    simple_compose,
    simple_identity,
    vertical_T,
    verify_fibre_axioms,
)
from .model import LiftWitness, TnObject, monad_mult, monoid_checks, vertical_lift_v
from .numeric import dual_eval, fd_check
from .parser import parse_poly, parse_polymap
from .poly import Poly, PolyMap, eval_polymap, polymap_to_str, random_polymap
from .report import CheckSet, Report
from .scalars import NATURAL, RATIONAL
from .suites import FAULTS, SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "BundleMor",
    "CheckSet",
    "DiffBundle",
    "DiffObject",
    "DimensionMismatch",
    "FAULTS",
    "FibreTangentModel",
    "LiftWitness",
    "NATURAL",
    "NotABundleMorphism",
    "Poly",
    "PolyMap",
    "PolyCDModel",
    "PolyParseError",
    "PolyTangentModel",
    "PreconditionFailure",
    "RATIONAL",
    "Report",
    "SUITE_NAMES",
    "SemiringViolation",
    "SimpleCDModel",
    "SimpleMor",
    "SimpleObj",
    "TnObject",
    "bracket",
    "bundle_from_diffobj",
    "canonical_diffobj",
    "cdc_D",
    "cdc_T",
    "cdc_ell",
    "cdc_flip",
    "check_cds",
    "derived_D",
    "diffobj_from_bundle",
    "dual_eval",
    "eval_polymap",
    "fd_check",
    "is_additive",
    "is_bundle_morphism",
    "is_linear",
    "load_bundle",
    "make_bundle",
    "monad_mult",
    "monoid_checks",
    "mu_characterization",
    "parse_bundle_text",
    "parse_poly",
    "parse_polymap",
    "polymap_to_str",
    "pullback_bundle",
    "pullback_mor",
    "random_polymap",
    "run_suite",
    "simple_D",
    "simple_compose",
    "simple_identity",
    "standard_bundle",
    "tangent_bundle_of",
    "tangent_of_bundle",
    "trivial_bundle",
    "verify_bundle",
    "verify_diffobj",
    "verify_fibre_axioms",
    "vertical_T",
    "vertical_lift_v",
    "whitney_pair",
    "whitney_proj",
    "whitney_sum",
]
