"""Differential objects: bundles over the point and the derived differential."""

import json
from fractions import Fraction
from random import Random

import pytest

from tancat import cli, diffobj, report, scalars
from tancat.bundles import pullback_bundle, standard_bundle, verify_bundle
from tancat.cdc import cdc_D, cdc_T, cdc_flip, point_proj
from tancat.diffobj import (
    DiffObject,
    bundle_from_diffobj,
    canonical_diffobj,
    check_cds,
    derived_D,
    diffobj_from_bundle,
    diffobj_lambda,
    diffobj_mu,
    product_pairing,
    verify_diffobj,
)
from tancat.errors import PreconditionFailure
from tancat.parser import parse_polymap
from tancat.poly import (
    block_swap,
    constant_map,
    identity_map,
    polymap_compose,
    polymap_proj,
    polymap_to_str,
    random_polymap,
    zero_map,
)


def test_canonical_phat_is_tangent_projection():
    for k in (1, 2, 3):
        o = canonical_diffobj(k)
        assert o.carrier == k
        assert o.phat == polymap_proj(2 * k, 0, k, scalars.RATIONAL)
        assert verify_diffobj(o).all_passed


def test_lambda_from_phat_satisfies_section_laws():
    for k in (1, 2):
        o = canonical_diffobj(k)
        lam = diffobj_lambda(o)
        assert polymap_compose(lam, o.phat) == identity_map(k, o.mode)
        p = point_proj(k, o.mode)
        want_zero = zero_map(k, k, o.mode)
        assert polymap_compose(lam, p) == want_zero


def test_roundtrip_through_bundle():
    for k in (1, 2):
        o = canonical_diffobj(k)
        b = bundle_from_diffobj(o)
        assert (b.base, b.fibre) == (0, k)
        assert verify_bundle(b).all_passed
        back = diffobj_from_bundle(b)
        assert (back.sigma, back.zeta, back.phat) == (o.sigma, o.zeta, o.phat)


def test_diffobj_requires_point_base():
    b = standard_bundle(1, 1)
    with pytest.raises(PreconditionFailure):
        diffobj_from_bundle(b)


def test_pullback_along_point_yields_diffobj():
    b = standard_bundle(1, 1)
    point = constant_map(0, [Fraction(2)], scalars.RATIONAL)
    fibre_at_2 = pullback_bundle(point, b)
    o = diffobj_from_bundle(fibre_at_2)
    assert o.carrier == 1
    assert verify_diffobj(o).all_passed


def test_derived_d_square():
    f = parse_polymap("x0^2", 1, scalars.RATIONAL)
    d = derived_D(f)
    assert polymap_to_str(d) == "2*x0*x1"
    assert d == cdc_D(f)


def test_derived_d_identity_and_constant():
    one = identity_map(2, scalars.RATIONAL)
    assert derived_D(one) == polymap_proj(4, 0, 2, scalars.RATIONAL)
    const = constant_map(2, [Fraction(3), Fraction(0)], scalars.RATIONAL)
    assert derived_D(const) == zero_map(4, 2, scalars.RATIONAL)


def test_derived_d_agrees_with_combinator_everywhere():
    rng = Random(77)
    for mode in scalars.MODES:
        for _ in range(20):
            f = random_polymap(rng.randint(1, 3), rng.randint(1, 3), 3, rng, mode)
            assert derived_D(f) == cdc_D(f)


def test_flip_transports_phat():
    # the tangent of a differential object carries p-hat = c;T(p-hat)
    lhs = polymap_compose(
        cdc_flip(1, scalars.RATIONAL), cdc_T(canonical_diffobj(1).phat)
    )
    assert lhs == canonical_diffobj(2).phat


def test_product_pairing_shape():
    o = canonical_diffobj(1)
    assert polymap_to_str(product_pairing(o)) == "x0; x1"


def test_interleave_roundtrip():
    # T(A x B) -> T(A) x T(B), (da, db, a, b) |-> (da, a, db, b), and back
    for k1, k2 in ((1, 1), (1, 2), (2, 3)):
        fwd = block_swap(k1, k2, k1, k2, scalars.RATIONAL)
        back = block_swap(k1, k1, k2, k2, scalars.RATIONAL)
        n = 2 * (k1 + k2)
        assert polymap_compose(fwd, back) == identity_map(n, scalars.RATIONAL)
        assert polymap_compose(back, fwd) == identity_map(n, scalars.RATIONAL)


def test_exchange_is_involutive():
    for k in (1, 2):
        ex = block_swap(k, k, k, k, scalars.RATIONAL)
        assert polymap_compose(ex, ex) == identity_map(4 * k, scalars.RATIONAL)
        assert ex == cdc_flip(k, scalars.RATIONAL)
    assert polymap_to_str(block_swap(1, 1, 1, 1, scalars.RATIONAL)) == "x0; x2; x1; x3"


def test_diffobj_mu_reads_both_tangents():
    o = canonical_diffobj(1)
    assert polymap_to_str(diffobj_mu(o)) == "x0; x1"


def test_cds_canonical_passes_and_corrupted_fails(monkeypatch):
    good = check_cds(2, scalars.RATIONAL)
    assert good.all_passed

    def bad_obj(k, mode):
        o = canonical_diffobj(k, mode)
        return DiffObject(k, o.sigma, o.zeta, polymap_proj(2 * k, k, 2 * k, mode), mode)

    monkeypatch.setattr(diffobj, "canonical_diffobj", bad_obj)
    bad = check_cds(2, scalars.RATIONAL)
    names = {c.name for c in bad.checks if c.status != "pass"}
    assert "product-witness" in names


@pytest.mark.parametrize("mode", [scalars.RATIONAL, scalars.NATURAL])
def test_cds_rows_stay_within_max_dim(mode, monkeypatch, tmp_path):
    """--max-dim 1 checks flip-phat and exchange at dimension 1 only, as the report's max_dim says."""
    seen = []
    equality = report.CheckSet.equality

    def record(self, name, lhs, rhs, detail=""):
        seen.append((name, detail))
        return equality(self, name, lhs, rhs, detail)

    monkeypatch.setattr(report.CheckSet, "equality", record)
    out = tmp_path / "cds.json"
    assert cli.main(["check", "--suite", "cds", "--mode", mode, "--max-dim", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["max_dim"] == 1
    for name in ("flip-phat", "exchange"):
        assert [detail for row, detail in seen if row == name] == ["dim 1"]
    # at the default bound, 3, both rows still run at every dimension up to it
    seen.clear()
    check_cds(3, mode)
    for name in ("flip-phat", "exchange"):
        assert [detail for row, detail in seen if row == name] == ["dim 1", "dim 2", "dim 3"]


@pytest.mark.parametrize("mode", [scalars.RATIONAL, scalars.NATURAL])
def test_first_projection_sigma_fails_unit_and_commutativity(mode):
    o = canonical_diffobj(2, mode)
    first = DiffObject(2, polymap_proj(4, 0, 2, mode), o.zeta, o.phat, mode)
    laws = {f"bundle:sigma-{law}" for law in ("unit", "commutative", "associative")}
    rows = {c.name: c.status for c in verify_diffobj(first).checks if c.name in laws}
    assert rows == {
        "bundle:sigma-unit": "fail",
        "bundle:sigma-commutative": "fail",
        "bundle:sigma-associative": "pass",
    }


PHAT_ROWS = {
    "product-witness",
    "phat-additive",
    "phat-zero",
    "phat-plus",
    "phat-zero-section",
    "phat-lift-coherence",
    "lambda-sections",
}


@pytest.mark.parametrize("mode", [scalars.RATIONAL, scalars.NATURAL])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_diffobj_is_its_bundle_rows_plus_the_phat_rows(k, mode):
    """The bundle laws are checked once, by verify_bundle; verify_diffobj adds only what phat brings."""
    o = canonical_diffobj(k, mode)
    rows = verify_diffobj(o).checks
    bundle_rows = {c.name for c in verify_bundle(bundle_from_diffobj(o)).checks}
    assert {c.name for c in rows} == PHAT_ROWS | {"bundle:" + name for name in bundle_rows}
    assert not [c.name for c in rows if "monoid-" in c.name]
    assert all(c.status == "pass" for c in rows)


@pytest.mark.parametrize("bound", [0, -1, True, False, 1.0, "2", None])
def test_cds_refuses_a_bound_that_checks_nothing(bound):
    """At a bound below 1 no dimension would be checked, and an empty CheckSet passes vacuously."""
    with pytest.raises(ValueError, match="invalid-params: bound must be an integer >= 1"):
        check_cds(bound, scalars.RATIONAL)
    assert check_cds(1, scalars.RATIONAL).all_passed
