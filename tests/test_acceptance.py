"""Acceptance gate: one test per top-level criterion, full-size bounds.

Each test prints a single PASS/FAIL line (visible under -s; the -v test
status carries the same verdict) and asserts the criterion exactly as
stated: default bounds are 50 instances per check, dims <= 3, degree <= 3,
seed 0, both scalar modes wherever the structure exists in both.
"""

import json
import time

from tancat import scalars
from tancat.suites import run_suite

TOTAL = 11


def _emit(idx, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{idx:2d}/{TOTAL}] {status} {label}{detail}", flush=True)
    assert ok, f"{label}{detail}"


def _row_names(report):
    return {c.name for c in report.checks}


def _failures(report):
    return {c.name: c.counterexample for c in report.checks if c.status != "pass"}


def _canonical(report):
    data = report.to_dict()
    data.pop("duration_ms")
    return json.dumps(data, sort_keys=True)


def test_c01_tangent_axioms_full_bounds_under_budget():
    t0 = time.monotonic()
    reports = [run_suite("tangent-axioms", mode=m) for m in scalars.MODES]
    elapsed = time.monotonic() - t0
    ok = all(r.all_passed for r in reports) and elapsed < 30.0
    names = _row_names(reports[0])
    for required in (
        "flip-involution", "ell-flip", "ell-coassociative", "yang-baxter",
        "ell-flip-braid", "plus-commutative", "plus-associative", "plus-unit",
        "p-section", "naturality-p", "naturality-zero", "naturality-plus",
        "naturality-ell", "naturality-flip", "lift-witness-inverse",
        "lift-witness-cone", "lift-witness-tangent", "functor-compose",
    ):
        ok = ok and required in names
    _emit(1, "tangent axioms, both modes", ok, f" ({elapsed:.1f}s)")


def test_c02_cdc_axioms_both_modes():
    reports = [run_suite("cdc-axioms", mode=m) for m in scalars.MODES]
    ok = all(r.all_passed for r in reports)
    names = _row_names(reports[0])
    for required in (
        "cd1-additive", "cd1-zero", "cd2-additive", "cd2-zero", "cd3-identity",
        "cd3-projection", "cd4-pairing", "cd5-chain", "cd6-lift", "cd7-symmetry",
    ):
        ok = ok and required in names
    ok = ok and all(r.params["instances"] == 50 for r in reports)
    _emit(2, "differential combinator axioms CD.1-CD.7", ok)


def test_c03_derived_differential_agrees_and_satisfies_axioms():
    reports = [run_suite("derived-differential", mode=m) for m in scalars.MODES]
    ok = all(r.all_passed for r in reports)
    names = _row_names(reports[0])
    ok = ok and "derived-equals-direct" in names and "cd5-chain" in names
    _emit(3, "derived differential equals the combinator and is a CD structure", ok)


def test_c04_bundle_constructors_verify_quickly():
    ok = True
    detail = []
    for mode in scalars.MODES:
        t0 = time.monotonic()
        rep = run_suite("bundle", mode=mode)
        elapsed = time.monotonic() - t0
        # the whole suite under 5s bounds every constructor family under 5s
        ok = ok and rep.all_passed and elapsed < 5.0
        detail.append(f"{mode} {elapsed:.1f}s")
        names = _row_names(rep)
        for required in (
            "trivial-1:sigma-unit", "standard-1-1:universality-left",
            "tangent-1:lambda-lift-coherence", "T[standard-1-1]:mu-projection",
            "pullback-verify", "whitney-verify", "whitney-pairing-recovers",
        ):
            ok = ok and required in names
    _emit(4, "bundle constructors, tangents, pullbacks, Whitney sums", ok,
          f" ({', '.join(detail)})")


def test_c05_bracket_laws_at_25_instances():
    reports = [run_suite("bracket-laws", mode=m, instances=25) for m in scalars.MODES]
    ok = all(r.all_passed for r in reports)
    names = _row_names(reports[0])
    for required in (
        "bracket-defining", "bracket-precompose", "bracket-postcompose-linear",
        "bracket-postcompose-zero", "bracket-over-base", "bracket-sigma",
        "bracket-plus", "bracket-tangent", "bracket-of-lambda", "bracket-of-mu",
        "bracket-of-zero",
    ):
        ok = ok and required in names
    _emit(5, "bracket laws and tangent compatibility", ok)


def test_c06_linearity_characterizations():
    reports = [run_suite("linearity", mode=m) for m in scalars.MODES]
    ok = all(r.all_passed for r in reports)
    names = _row_names(reports[0])
    for required in (
        "projection-to-unit-linear", "tangent-functor-linear",
        "bundle-projection-linear", "whitney-projection-linear",
        "linear-implies-additive", "linearity-mu-equivalence",
        "diffobj-linearity-equivalence", "squaring-not-linear",
        "squaring-not-additive",
    ):
        ok = ok and required in names
    _emit(6, "linearity: constructors linear, equivalences both ways, squaring fails", ok)


def test_c07_cds_compatibilities():
    reports = [run_suite("cds", mode=m, max_dim=2) for m in scalars.MODES]
    ok = all(r.all_passed for r in reports)
    ok = ok and _row_names(reports[0]) == {
        "cds1-lambda", "cds1-phat", "cds2-lambda", "cds2-phat",
        "flip-phat", "exchange", "product-witness",
    }
    _emit(7, "differential-object compatibilities at dims <= 2", ok)


def test_c08_fibration_suite():
    reports = [run_suite("fibration", mode=m) for m in scalars.MODES]
    ok = all(r.all_passed for r in reports)
    names = _row_names(reports[0])
    for required in (
        "compose-associative", "simple-cd5-chain", "simple-cd7-symmetry",
        "fibre[1]:ell-coassociative", "fibre[2]:yang-baxter",
        "vertical-functorial", "vertical-context-free", "vertical-vs-simple-d",
    ):
        ok = ok and required in names
    _emit(8, "simple fibration: composition, CD axioms, fibre tangent structure", ok)


def test_c09_monad_laws():
    reports = [run_suite("monad-laws", mode=m) for m in scalars.MODES]
    ok = all(r.all_passed for r in reports)
    ok = ok and "monad-unit-zero" in _row_names(reports[0])
    ok = ok and "monad-associative" in _row_names(reports[0])
    _emit(9, "tangent monad unit and associativity", ok)


def test_c10_numeric_consistency():
    rep = run_suite("numeric-consistency")
    ok = rep.all_passed and rep.params["instances"] == 50
    names = _row_names(rep)
    ok = ok and {"dual-vs-symbolic", "fd-vs-dual", "affine-fd-tight"} <= names
    _emit(10, "exact dual numbers vs the differential and vs exact difference quotients", ok)


def test_c11_fault_injection_flips_checks_deterministically():
    pairings = (
        ("identity-flip", "tangent-axioms"),
        ("dropped-zero-block", "tangent-axioms"),
        ("corrupted-lambda", "bundle"),
    )
    ok = True
    detail = []
    for fault, suite in pairings:
        rep = run_suite(suite, fault=fault)
        bad = _failures(rep)
        ok = ok and len(bad) >= 1
        ok = ok and any(text for text in bad.values())
        again = run_suite(suite, fault=fault)
        ok = ok and _canonical(rep) == _canonical(again)
        detail.append(f"{fault}:{len(bad)}")
    _emit(11, "fault injection flips checks with counterexamples", ok,
          f" ({', '.join(detail)})")
