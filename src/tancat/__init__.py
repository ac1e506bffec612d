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

The namespace is lazy.  ``import tancat`` runs no submodule: it puts each one
but ``cli`` into ``sys.modules`` unexecuted (``importlib.util.LazyLoader``),
and a module runs the first time one of its attributes is read, which any
import of it does.  So code that finds a submodule through ``sys.modules``, as
the benchmark's call tracer does, finds each one, while a kernel user who
imports ``poly``, ``parser`` and ``cdc`` runs none of the checker modules.
``tancat.X`` looks X up in its defining module on every access, so it is
always the module's current binding.  ``cli`` is not registered because
``python -m tancat.cli`` runs it as ``__main__``, and warns when it finds
``tancat.cli`` in ``sys.modules`` already.
"""

import sys
from importlib import import_module
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "bundles": (
        "BundleMor", "DiffBundle", "bracket", "is_additive", "is_bundle_morphism", "is_linear",
        "load_bundle", "make_bundle", "mu_characterization", "parse_bundle_text",
        "pullback_bundle", "pullback_mor", "standard_bundle", "tangent_bundle_of",
        "tangent_of_bundle", "trivial_bundle", "verify_bundle", "whitney_pair", "whitney_proj",
        "whitney_sum",
    ),
    "cdc": (
        "LiftWitness", "PolyTangentModel", "TnObject", "cdc_D", "cdc_T", "cdc_ell", "cdc_flip",
    ),
    "diffobj": (
        "DiffObject", "bundle_from_diffobj", "canonical_diffobj", "check_cds", "derived_D",
        "diffobj_from_bundle", "verify_diffobj",
    ),
    "errors": (
        "DimensionMismatch", "NotABundleMorphism", "PolyParseError", "PreconditionFailure",
        "SemiringViolation",
    ),
    "fibration": (
        "FibreTangentModel", "SimpleCDModel", "SimpleMor", "SimpleObj", "simple_D",
        "simple_compose", "simple_identity", "vertical_T", "verify_fibre_axioms",
    ),
    "model": ("monad_mult", "monoid_checks", "vertical_lift_v"),
    "numeric": ("dual_eval", "fd_check"),
    "parser": ("parse_poly", "parse_polymap"),
    "poly": ("Poly", "PolyMap", "eval_polymap", "polymap_to_str", "random_polymap"),
    "report": ("CheckSet", "Report"),
    "scalars": ("NATURAL", "RATIONAL"),
    "suites": ("FAULTS", "SUITE_NAMES", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

_LAZY = (*_EXPORTS, "params")
_SUBMODULES = (*_LAZY, "cli")


def _register_lazily() -> None:
    for name in _LAZY:
        if f"{__name__}.{name}" in sys.modules:
            continue
        spec = PathFinder.find_spec(f"{__name__}.{name}", __path__)
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)


_register_lazily()


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
