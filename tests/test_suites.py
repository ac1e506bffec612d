"""Suite runner: expected-pass fixtures, fault flips, determinism, validation.

Small instance counts keep this file fast; the full-size defaults run in
test_acceptance.py.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from tancat import scalars, suites
from tancat.cdc import PolyCDModel, cdc_D
from tancat.diffobj import derived_D
from tancat.fibration import SimpleCDModel
from tancat.suites import (
    FAULT_SUITES,
    FAULTS,
    POINT_BOUND,
    SUITE_NAMES,
    SuiteParams,
    cdc_axioms_checks,
    run_suite,
)

SMALL = dict(instances=5, max_dim=2)


def canonical(report):
    data = report.to_dict()
    data.pop("duration_ms")
    return json.dumps(data, sort_keys=True)


def non_pass(report):
    return {c.name for c in report.checks if c.status != "pass"}


def test_registry_inventory():
    assert SUITE_NAMES == (
        "bracket-laws",
        "bundle",
        "cdc-axioms",
        "cds",
        "derived-differential",
        "diffobj",
        "fibration",
        "interchange",
        "linearity",
        "monad-laws",
        "numeric-consistency",
        "tangent-axioms",
    )
    assert FAULTS == ("identity-flip", "dropped-zero-block", "corrupted-lambda")
    assert SuiteParams().instances == 50 and SuiteParams().seed == 0


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("mode", scalars.MODES)
def test_every_suite_passes_small(suite, mode):
    rep = run_suite(suite, mode=mode, **SMALL)
    assert rep.all_passed, non_pass(rep)
    assert rep.failed == 0 and rep.passed == len(rep.checks)


def test_expected_pass_fixture_seed_seven():
    # full default bounds, alternate seed
    rep = run_suite("tangent-axioms", seed=7)
    assert rep.all_passed and len(rep.checks) == 28


def test_reports_are_deterministic():
    for suite in ("tangent-axioms", "bundle", "numeric-consistency"):
        a = run_suite(suite, **SMALL)
        b = run_suite(suite, **SMALL)
        assert canonical(a) == canonical(b)


def test_row_sets_match_across_modes():
    for suite in SUITE_NAMES:
        names_by_mode = [
            [c.name for c in run_suite(suite, mode=mode, **SMALL).checks]
            for mode in scalars.MODES
        ]
        assert names_by_mode[0] == names_by_mode[1]


def test_seed_changes_counterexample_sampling_not_rows():
    a = run_suite("cdc-axioms", seed=1, **SMALL)
    b = run_suite("cdc-axioms", seed=2, **SMALL)
    assert [c.name for c in a.checks] == [c.name for c in b.checks]


# ------------------------------------------------------------------ faults

def test_identity_flip_fault_rows():
    rep = run_suite("tangent-axioms", fault="identity-flip", **SMALL)
    bad = non_pass(rep)
    assert "flip-vs-tangent-projection" in bad
    assert "ell-flip-braid" in bad
    # c^2 = 1 still holds for the identity, as does ell;c = ell
    assert "flip-involution" not in bad
    assert "ell-flip" not in bad
    failing = [c for c in rep.checks if c.status == "fail"]
    assert all(c.counterexample for c in failing)


def test_dropped_zero_block_fault_rows():
    rep = run_suite("tangent-axioms", fault="dropped-zero-block", **SMALL)
    bad = non_pass(rep)
    assert {"ell-flip", "ell-coassociative", "lift-v-point"} <= bad
    assert "p-section" not in bad


def test_corrupted_lambda_fault_rows():
    rep = run_suite("bundle", fault="corrupted-lambda", **SMALL)
    bad = non_pass(rep)
    assert "standard-1-1:lambda-zeta-square" in bad
    assert "standard-1-1:universality-left" in bad
    # unrelated bundles stay green
    assert not any(name.startswith("trivial") for name in bad)

    laws = run_suite("bracket-laws", fault="corrupted-lambda", **SMALL)
    assert not laws.all_passed


@pytest.mark.parametrize("mode", scalars.MODES)
@pytest.mark.parametrize("fault, distinct", [(None, 15), ("corrupted-lambda", 22)])
def test_bundle_suite_verifies_each_distinct_bundle_once(mode, fault, distinct, monkeypatch):
    """The families, their tangents, 50 pullbacks and 16 Whitney sums ask for 80 verifications, and
    equal bundles recur among them: at seed 0, 15 are distinct, and 22 with the corrupted lift."""
    calls, verify_bundle = [], suites.verify_bundle

    def spy(b):
        calls.append(b)
        return verify_bundle(b)

    monkeypatch.setattr(suites, "verify_bundle", spy)
    assert run_suite("bundle", mode=mode, fault=fault).all_passed is (fault is None)
    assert len(calls) == len(set(calls)) == distinct


def test_each_fault_flips_at_least_one_check():
    pairings = (
        ("identity-flip", "tangent-axioms"),
        ("dropped-zero-block", "tangent-axioms"),
        ("corrupted-lambda", "bundle"),
    )
    for fault, suite in pairings:
        rep = run_suite(suite, fault=fault, **SMALL)
        bad = [c for c in rep.checks if c.status != "pass"]
        assert bad
        assert any(c.counterexample for c in bad)
        assert canonical(rep) == canonical(run_suite(suite, fault=fault, **SMALL))


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _fault_rows(monkeypatch):
    """The benchmark's table of the exact rows each (suite, fault) pair fails."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks up its class's module in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.FAULT_ROWS


def test_each_fault_fails_exactly_the_benchmarked_rows(monkeypatch):
    fault_rows = _fault_rows(monkeypatch)
    assert set(fault_rows) == {(suite, fault) for fault, suites in FAULT_SUITES.items() for suite in suites}
    for (suite, fault), rows in sorted(fault_rows.items()):
        for mode in scalars.MODES:
            for seed in (0, 7):
                rep = run_suite(suite, fault=fault, mode=mode, seed=seed)
                assert non_pass(rep) == rows, (suite, fault, mode, seed)
                assert all(c.counterexample for c in rep.checks if c.status != "pass")


def test_fault_suite_compatibility_is_enforced():
    with pytest.raises(ValueError, match="invalid-params"):
        run_suite("cdc-axioms", fault="identity-flip")
    with pytest.raises(ValueError, match="invalid-params"):
        run_suite("bundle", fault="dropped-zero-block")
    with pytest.raises(ValueError, match="invalid-params"):
        run_suite("tangent-axioms", fault="corrupted-lambda")
    # monad-laws never reaches flip or ell, so these faults would be vacuous
    for fault in ("identity-flip", "dropped-zero-block"):
        with pytest.raises(ValueError, match="does not affect suite 'monad-laws'"):
            run_suite("monad-laws", fault=fault)


CD_MODELS = {
    "cdc_D": lambda mode: PolyCDModel(cdc_D, mode, 2),
    "derived_D": lambda mode: PolyCDModel(derived_D, mode, 2),
    "simple_D": lambda mode: SimpleCDModel(mode, 2),
}


@pytest.mark.parametrize("mode", scalars.MODES)
@pytest.mark.parametrize("name", sorted(CD_MODELS))
def test_cd_checker_rejects_doubled_differential(name, mode):
    model = CD_MODELS[name](mode)
    plain = model.D
    model.D = lambda f: model.add(plain(f), plain(f))
    rep = cdc_axioms_checks(model, SuiteParams(max_degree=2, instances=4, seed=0), "cd-test").report("cd", {})
    assert {"cd3-identity", "cd6-lift"} <= non_pass(rep)


# -------------------------------------------------------------- validation

def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown-suite"):
        run_suite("cartesian-closed")


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError, match="invalid-params"):
        run_suite("tangent-axioms", dimension=3)
    # the coefficient range is scalars.COEFF_BOUND, not a parameter
    with pytest.raises(ValueError, match="invalid-params: unknown parameter 'coeff_bound'"):
        run_suite("tangent-axioms", coeff_bound=3)


def test_bad_parameter_values_rejected():
    with pytest.raises(ValueError, match="invalid-params"):
        run_suite("tangent-axioms", mode="complex")
    with pytest.raises(ValueError, match="invalid-params"):
        run_suite("tangent-axioms", instances=0)
    with pytest.raises(ValueError, match="invalid-params"):
        run_suite("tangent-axioms", seed="zero")
    with pytest.raises(ValueError, match="invalid-params"):
        run_suite("tangent-axioms", fault="swapped-plus")


@pytest.mark.parametrize("field", ["max_dim", "max_degree", "instances", "seed"])
def test_bool_parameter_values_rejected(field):
    # bool is a subclass of int, so True would otherwise run as 1 and be reported as true
    for value in (True, False):
        with pytest.raises(ValueError, match=f"invalid-params: {field} must be an integer"):
            run_suite("cds", **{field: value})


@pytest.mark.parametrize("max_dim", [1, 3])
@pytest.mark.parametrize(
    "suite", ["bracket-laws", "bundle", "fibration", "interchange", "linearity", "numeric-consistency"]
)
def test_dimension_draws_stay_within_max_dim(suite, max_dim, monkeypatch):
    """Every randint range but a point's ends at most at max_dim: these suites draw
    dimensions up to 2 or 3 at the default max_dim 3, and none above 1 at max_dim 1."""
    ranges, randint = [], random.Random.randint

    def recording(rng, a, b):
        ranges.append((a, b))
        return randint(rng, a, b)

    monkeypatch.setattr(random.Random, "randint", recording)
    assert run_suite(suite, max_dim=max_dim, instances=4).all_passed
    tops = {b for _, b in ranges if b != POINT_BOUND}
    assert max(tops) <= max_dim and (max_dim == 1 or 2 in tops)


def test_params_echoed_in_report():
    rep = run_suite("monad-laws", mode=scalars.NATURAL, instances=4, max_dim=2)
    assert rep.params["mode"] == "natural"
    assert rep.params["instances"] == 4
    assert rep.params["fault"] is None


@pytest.mark.parametrize("mode", ["rational", "natural"])
def test_maps_print_only_while_a_row_records_its_first_failure(mode, monkeypatch):
    """A clean tangent-axioms run prints no map; under identity-flip a map prints only inside
    the recording of a row's first failure."""
    from tancat import report
    from tancat.poly import PolyMap

    state = {"failing": False, "outside": 0, "inside": 0}
    to_str, fail = PolyMap.__str__, report.CheckSet._fail

    def spy_str(self):
        state["inside" if state["failing"] else "outside"] += 1
        return to_str(self)

    def spy_fail(self, name, *args):
        first = self._rows.get(name) is None or self._rows[name].status == report.PASS
        state["failing"] = first
        try:
            return fail(self, name, *args)
        finally:
            state["failing"] = False

    monkeypatch.setattr(PolyMap, "__str__", spy_str)
    monkeypatch.setattr(report.CheckSet, "_fail", spy_fail)
    assert run_suite("tangent-axioms", mode=mode).all_passed
    assert state == {"failing": False, "outside": 0, "inside": 0}
    rep = run_suite("tangent-axioms", mode=mode, fault="identity-flip")
    assert not rep.all_passed
    assert state["outside"] == 0 and state["inside"] > 0
