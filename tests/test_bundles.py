"""Differential bundles: constructors, verification, brackets, morphisms.

Layout reminders for the frozen strings below: totals of constructor
bundles are base-first (x, a); tangents are tangent-first, so T(E) reads
(du, dx-ish tangent block, then the point).  E_2 is (x, a1, a2).
"""

from dataclasses import replace
from random import Random

import pytest

from tancat import bundles as bundles_module
from tancat import scalars
from tancat.bundles import (
    BundleMor,
    bracket,
    bracket_legs,
    bundle_pi,
    bundle_projection_mor,
    bundle_zero_mor,
    display_blocks,
    display_bundle,
    is_additive,
    is_bundle_morphism,
    is_linear,
    lift_witness,
    make_bundle,
    mu_characterization,
    mu_map,
    pair_into_e2,
    parse_bundle_text,
    pullback_bundle,
    pullback_mor,
    standard_bundle,
    tangent_bundle_of,
    tangent_of_bundle,
    tangent_triv,
    tangent_triv_inv,
    trivial_bundle,
    verify_bundle,
    whitney_pair,
    whitney_proj,
    whitney_sum,
    zeta_fibre,
)
from tancat.cdc import cdc_T, point_proj, tangent_zero
from tancat.diffobj import bundle_from_diffobj, canonical_diffobj, diffobj_mu
from tancat.errors import (
    DimensionMismatch,
    NotABundleMorphism,
    PreconditionFailure,
)
from tancat.parser import parse_polymap
from tancat.poly import (
    coordinate_map,
    identity_map,
    polymap_compose,
    polymap_pair,
    polymap_proj,
    polymap_to_str,
    random_polymap,
    zero_map,
)
from tancat.suites import _bundle_families

MODES = (scalars.RATIONAL, scalars.NATURAL)


def failing_names(report):
    return {c.name for c in report.checks if c.status != "pass"}


# ------------------------------------------------------------ constructors

def test_standard_bundle_frozen_maps():
    b = standard_bundle(1, 1)
    assert polymap_to_str(b.q) == "x0"
    assert polymap_to_str(b.sigma) == "x0; x1 + x2"
    assert polymap_to_str(b.zeta) == "x0; 0"
    assert polymap_to_str(b.lam) == "0; x1; x0; 0"


def test_trivial_bundle_is_identity_data():
    t = trivial_bundle(2)
    assert t.fibre == 0 and t.total == 2
    assert t.q == identity_map(2, scalars.RATIONAL)
    assert t.sigma == identity_map(2, scalars.RATIONAL)
    assert t.zeta == identity_map(2, scalars.RATIONAL)
    # lift degenerates to the zero section of T
    assert polymap_to_str(t.lam) == "0; 0; x0; x1"
    assert mu_map(t) == t.lam


def test_constructor_bundles_verify():
    for b in (
        trivial_bundle(1),
        trivial_bundle(3),
        standard_bundle(1, 1),
        standard_bundle(2, 1),
        standard_bundle(1, 2),
        tangent_bundle_of(1),
        tangent_bundle_of(2),
    ):
        rep = verify_bundle(b)
        assert rep.all_passed, failing_names(rep)


def test_constructor_bundles_verify_natural_mode():
    for b in (
        trivial_bundle(2, scalars.NATURAL),
        standard_bundle(1, 1, scalars.NATURAL),
        tangent_bundle_of(1, scalars.NATURAL),
    ):
        assert verify_bundle(b).all_passed


def test_tangent_bundle_of_object_is_tangent_structure():
    tb = tangent_bundle_of(1)
    assert tb.base == 1 and tb.fibre == 1
    assert polymap_to_str(tb.q) == "x1"  # point projection of (u, x)
    assert polymap_to_str(tb.lam) == "x0; 0; 0; x1"  # the vertical lift


@pytest.mark.parametrize("b", [standard_bundle(2, 1), tangent_bundle_of(1)])
def test_bundle_pi_projects_out_of_e3(b):
    m, k = b.base, b.fibre
    e3 = m + 3 * k
    for i in range(3):
        x = polymap_proj(e3, 0, m, b.mode)
        fib = polymap_proj(e3, m + i * k, m + (i + 1) * k, b.mode)
        assert bundle_pi(b, i, 3) == polymap_compose(polymap_pair(x, fib), b.triv_inv)
    assert bundle_pi(b, 1) == bundle_pi(b, 1, 2)


def display_projection(b, which, n):
    """<x, a_which> : E_n -> M x F, read off the display coordinates (x, a_1, ..., a_n)."""
    dim, lo = b.base + n * b.fibre, b.base + which * b.fibre
    return polymap_pair(polymap_proj(dim, 0, b.base, b.mode), polymap_proj(dim, lo, lo + b.fibre, b.mode))


@pytest.mark.parametrize("mode", MODES)
def test_bundle_pi_is_the_display_projection_then_triv_inv(mode):
    fams = _bundle_families(mode)
    fams.update({f"T[{label}]": tangent_of_bundle(b) for label, b in fams.items()})
    swapped = {label for label, b in fams.items() if b.triv != identity_map(b.total, mode)}
    assert {"tangent-1", "tangent-2", "T[standard-1-1]", "T[tangent-1]", "T[tangent-2]"} <= swapped
    for label, b in fams.items():
        for n in (2, 3):
            for which in range(n):
                want = polymap_compose(display_projection(b, which, n), b.triv_inv)
                assert bundle_pi(b, which, n) == want, (label, which, n)


def test_zeta_fibre_is_the_display_zeta_block():
    # triv (x, a) |-> (x, a + x) moves the section x |-> (x, x) to fibre value 2x
    R = scalars.RATIONAL
    t = parse_polymap("x0; x1 + x0", 2, R)
    t_inv = parse_polymap("x0; x1 - x0", 2, R)
    zeta = parse_polymap("x0; x0", 1, R)
    sigma = parse_polymap("x0; x1 + x2", 3, R)
    lam = parse_polymap("0; x1; x0; 0", 2, R)
    b = make_bundle(1, 1, sigma, zeta, lam, (t, t_inv), R)
    assert polymap_to_str(zeta_fibre(b)) == "2*x0"
    for other in (b, standard_bundle(2, 1), tangent_bundle_of(2)):
        n = other.base + other.fibre
        display = polymap_compose(
            polymap_compose(other.zeta, other.triv), polymap_proj(n, other.base, n, other.mode)
        )
        assert zeta_fibre(other) == display


def test_mu_map_frozen_and_derived_identities():
    b = standard_bundle(1, 1)
    mu = mu_map(b)
    assert polymap_to_str(mu) == "0; x1; x0; x2"
    # mu;p = pi1 and <1, q zeta>;mu = lambda
    p_e = point_proj(b.total, b.mode)
    assert polymap_compose(mu, p_e) == bundle_pi(b, 1)
    one_qzeta = pair_into_e2(
        b, identity_map(b.total, b.mode), polymap_compose(b.q, b.zeta)
    )
    assert polymap_compose(one_qzeta, mu) == b.lam


def test_corrupted_lambda_fails_zeta_square():
    base = standard_bundle(1, 1)
    lam = parse_polymap("0; x1; x0; x1", 2, scalars.RATIONAL)
    bad = make_bundle(1, 1, base.sigma, base.zeta, lam, None, scalars.RATIONAL)
    rep = verify_bundle(bad)
    bad_rows = failing_names(rep)
    assert "lambda-zeta-square" in bad_rows
    assert "universality-left" in bad_rows
    assert "sigma-over-base" not in bad_rows


def test_make_bundle_rejects_fake_trivialization():
    b = standard_bundle(1, 1)
    swap = parse_polymap("x1; x0", 2, scalars.RATIONAL)
    with pytest.raises(PreconditionFailure):
        make_bundle(1, 1, b.sigma, b.zeta, b.lam, (swap, identity_map(2, b.mode)), b.mode)


@pytest.mark.parametrize(
    "mode, k, lam_text",
    [(scalars.RATIONAL, 1, "0; 2*x1; x0; 0"), (scalars.NATURAL, 2, "0; x2; x1; x0; 0; 0")],
)
def test_constant_non_identity_lift_block_fails_coherence_and_universality(mode, k, lam_text):
    # the fibre-tangent block M (2, or the swap of a1 and a2) is invertible but
    # M^2 != M, so lift coherence fails; kappa is not the identity, so
    # universality fails with it
    base = standard_bundle(1, k, mode)
    lam = parse_polymap(lam_text, 1 + k, mode)
    bad = make_bundle(1, k, base.sigma, base.zeta, lam, None, mode)
    bad_rows = failing_names(verify_bundle(bad))
    assert "lambda-lift-coherence" in bad_rows
    assert {"universality-left", "universality-right", "universality-cone"} <= bad_rows


@pytest.mark.parametrize("mode", MODES)
def test_lift_witness_comparison_is_identity(mode):
    # R lies on E_2's coordinates, so kappa = mu;sel is the identity, for every family the suites check
    for label, b in _bundle_families(mode).items():
        kappa = polymap_compose(mu_map(b), lift_witness(b).sel)
        assert kappa == identity_map(b.e2_dim, mode), label


def swapped_sel(b):
    """sel reads R's two fibre blocks in the wrong order: (dx, x, da, a) |-> (x, a, da) through tau."""
    m, k, t = b.base, b.fibre, 2 * b.total
    read = coordinate_map(t, (*range(m, 2 * m), *range(2 * m + k, t), *range(2 * m, 2 * m + k)), b.mode)
    return replace(lift_witness(b), sel=polymap_compose(tangent_triv(b), read))


def misplaced_leg(b):
    """The leg R -> T(E) puts beta in the da block: (x, alpha, beta) |-> tau^{-1}(0, x, beta, alpha)."""
    m, k, r = b.base, b.fibre, b.e2_dim
    leg = coordinate_map(r, (*(None,) * m, *range(m), *range(m + k, r), *range(m, m + k)), b.mode)
    return replace(lift_witness(b), into_tangent=polymap_compose(leg, tangent_triv_inv(b)))


@pytest.mark.parametrize(
    "witness, failing",
    [
        (swapped_sel, {"universality-left", "universality-right", "universality-cone"}),
        (misplaced_leg, {"universality-cone"}),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_broken_witness_fails_only_its_universality_rows(monkeypatch, witness, failing, mode):
    monkeypatch.setattr(bundles_module, "lift_witness", witness)
    for label, b in _bundle_families(mode).items():
        if b.fibre:  # with no fibre, R is the base alone and neither witness is wrong
            rows = verify_bundle(b).checks
            assert {c.name for c in rows if c.status != "pass"} == failing, label
            assert all(c.counterexample for c in rows if c.status != "pass"), label


@pytest.mark.parametrize("mode", [scalars.RATIONAL, scalars.NATURAL])
def test_first_summand_sigma_fails_left_unit_and_commutativity(mode):
    base = standard_bundle(1, 1, mode)
    first = parse_polymap("x0; x1", 3, mode)  # (x, a) + (x, b) = (x, a)
    bad = make_bundle(1, 1, first, base.zeta, base.lam, None, mode)
    rows = {c.name: c for c in verify_bundle(bad).checks if c.name.startswith("sigma-")}
    assert {name for name, c in rows.items() if c.status != "pass"} == {
        "sigma-unit",
        "sigma-commutative",
    }
    assert rows["sigma-unit"].counterexample.startswith("unit on the left; ")
    assert rows["sigma-associative"].status == "pass"


# ----------------------------------------------------------------- bracket

def test_bracket_of_structure_maps():
    for b in (standard_bundle(1, 1), standard_bundle(2, 1), tangent_bundle_of(1)):
        assert bracket(b.lam, b) == identity_map(b.total, b.mode)
        zero_e = polymap_compose(b.q, polymap_compose(b.zeta, b.lam))
        # {0_E} = q;zeta, where 0_E is the vertical zero q;zeta;lambda
        assert bracket(zero_e, b) == polymap_compose(b.q, b.zeta)
        assert bracket(mu_map(b), b) == bundle_pi(b, 0)


def test_bracket_constant_example():
    # fibre R over the point: f constant at tangent 3 over 0 pulls back to 3
    b = standard_bundle(0, 1)
    f = parse_polymap("3; 0", 1, scalars.RATIONAL)
    assert polymap_to_str(bracket(f, b)) == "3"


def test_bracket_section_example():
    b = standard_bundle(1, 1)
    f = parse_polymap("0; x0^2; x0; x0", 1, scalars.RATIONAL)
    assert polymap_to_str(bracket(f, b)) == "x0; x0^2"


@pytest.mark.parametrize("mode", MODES)
def test_bracket_legs_equal_the_inline_composites(mode):
    """bracket's legs p;q;0_M, sel;pi0 and p;0_E, built once per bundle, equal the composites bracket
    once built inline on each call, for every family the suites check, clean and faulted."""
    rng = Random(5)
    for fault in (None, "corrupted-lambda"):
        for label, b in _bundle_families(mode, fault).items():
            over_base, read_off, point_zero = bracket_legs(b)
            p_e = point_proj(b.total, mode)
            assert over_base == polymap_compose(p_e, polymap_compose(b.q, tangent_zero(b.base, mode))), label
            assert point_zero == polymap_compose(p_e, tangent_zero(b.total, mode)), label
            f = random_polymap(2, 2 * b.total, 2, rng, mode)
            inline = polymap_compose(polymap_compose(f, lift_witness(b).sel), bundle_pi(b, 0))
            assert polymap_compose(f, read_off) == inline, label


def test_bracket_rejects_non_equalizer_input():
    b = standard_bundle(1, 1)
    f = parse_polymap("x0; x0^2; x0; x0", 1, scalars.RATIONAL)
    with pytest.raises(PreconditionFailure):
        bracket(f, b)
    with pytest.raises(DimensionMismatch):
        bracket(parse_polymap("x0; x0", 1, scalars.RATIONAL), b)


# --------------------------------------------------------------- morphisms

def test_projection_to_unit_is_linear():
    b = standard_bundle(2, 1)
    unit = trivial_bundle(2)
    mor = BundleMor(b.q, identity_map(2, b.mode))
    assert is_linear(mor, b, unit)
    assert is_additive(mor, b, unit)
    assert mu_characterization(mor, b, unit)


def test_tangent_functor_morphisms_are_linear():
    rng = Random(23)
    for _ in range(10):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        f = random_polymap(n, m, 3, rng, scalars.RATIONAL)
        mor = BundleMor(cdc_T(f), f)
        assert is_linear(mor, tangent_bundle_of(n), tangent_bundle_of(m))
        assert is_additive(mor, tangent_bundle_of(n), tangent_bundle_of(m))


def test_fibrewise_squaring_is_not_linear():
    b = standard_bundle(1, 1)
    sq = parse_polymap("x0; x1^2", 2, scalars.RATIONAL)
    mor = BundleMor(sq, identity_map(1, scalars.RATIONAL))
    assert is_bundle_morphism(mor, b, b)
    assert not is_linear(mor, b, b)
    assert not is_additive(mor, b, b)
    assert not mu_characterization(mor, b, b)


def test_non_morphism_square_is_rejected():
    b = standard_bundle(1, 1)
    bad = BundleMor(parse_polymap("x1; x0", 2, scalars.RATIONAL),
                    identity_map(1, scalars.RATIONAL))
    with pytest.raises(NotABundleMorphism):
        is_linear(bad, b, b)


def test_projection_and_zero_constructor_morphisms():
    b = standard_bundle(2, 1)
    t = tangent_of_bundle(b)
    proj = bundle_projection_mor(b)
    assert is_linear(proj, t, b)
    z = bundle_zero_mor(b)
    assert is_linear(z, b, t)


# ------------------------------------------------- derived constructions

def test_tangent_of_bundle_verifies():
    for b in (standard_bundle(1, 1), standard_bundle(1, 2), tangent_bundle_of(1)):
        tb = tangent_of_bundle(b)
        assert tb.base == 2 * b.base and tb.fibre == 2 * b.fibre
        rep = verify_bundle(tb)
        assert rep.all_passed, failing_names(rep)


def test_tangent_of_trivial_has_zero_fibre():
    t = tangent_of_bundle(trivial_bundle(2))
    assert t.fibre == 0 and t.base == 4
    assert verify_bundle(t).all_passed


def test_pullback_along_identity_is_same_data():
    b = standard_bundle(1, 2)
    pb = pullback_bundle(identity_map(1, b.mode), b)
    assert (pb.sigma, pb.zeta, pb.lam) == (b.sigma, b.zeta, b.lam)


def test_pullback_preserves_fibre_shape():
    b = standard_bundle(1, 1)
    f = parse_polymap("x0^2", 1, scalars.RATIONAL)
    pb = pullback_bundle(f, b)
    assert (pb.base, pb.fibre) == (1, 1)
    assert (pb.sigma, pb.zeta, pb.lam) == (b.sigma, b.zeta, b.lam)
    assert verify_bundle(pb).all_passed
    assert is_linear(pullback_mor(f, b, pb), pb, b)


def test_pullback_verifies_along_random_maps():
    rng = Random(40)
    for b in (standard_bundle(1, 1), standard_bundle(2, 1)):
        for _ in range(5):
            f = random_polymap(rng.randint(1, 2), b.base, 3, rng, b.mode)
            pb = pullback_bundle(f, b)
            assert verify_bundle(pb).all_passed
            assert is_linear(pullback_mor(f, b, pb), pb, b)


def test_whitney_sum_shapes_and_projections():
    b1 = standard_bundle(1, 1)
    b2 = standard_bundle(1, 2)
    s = whitney_sum(b1, b2)
    assert s.fibre == 3 and s.base == 1
    assert verify_bundle(s).all_passed
    for which, target in ((0, b1), (1, b2)):
        assert is_linear(whitney_proj(s, b1, b2, which), s, target)


def test_whitney_unit_is_identity_on_data():
    b = standard_bundle(1, 1)
    s = whitney_sum(b, trivial_bundle(1))
    assert (s.base, s.fibre) == (b.base, b.fibre)
    assert (s.sigma, s.zeta, s.lam) == (b.sigma, b.zeta, b.lam)


def test_whitney_pairing_recovers_components():
    b1 = standard_bundle(1, 1)
    b2 = standard_bundle(1, 1)
    s = whitney_sum(b1, b2)
    t = tangent_bundle_of(1)
    m1 = BundleMor(cdc_T(identity_map(1, scalars.RATIONAL)), identity_map(1, scalars.RATIONAL))
    # two linear maps t -> b_i with the same base map pair into the sum
    f1 = BundleMor(parse_polymap("x1; x0", 2, scalars.RATIONAL), identity_map(1, scalars.RATIONAL))
    f2 = BundleMor(parse_polymap("x1; 2*x0", 2, scalars.RATIONAL), identity_map(1, scalars.RATIONAL))
    paired = whitney_pair(f1, f2, b1, b2, s)
    for which, f in ((0, f1), (1, f2)):
        back = polymap_compose(paired.f, whitney_proj(s, b1, b2, which).f)
        assert back == f.f


def test_whitney_rejects_base_mismatch():
    with pytest.raises(DimensionMismatch):
        whitney_sum(standard_bundle(1, 1), standard_bundle(2, 1))


def test_whitney_pair_needs_shared_base_map():
    b1 = standard_bundle(1, 1)
    s = whitney_sum(b1, b1)
    f1 = BundleMor(parse_polymap("x1; x0", 2, scalars.RATIONAL), identity_map(1, scalars.RATIONAL))
    f2 = BundleMor(parse_polymap("0; x0", 1, scalars.RATIONAL), zero_map(1, 1, scalars.RATIONAL))
    with pytest.raises(PreconditionFailure):
        whitney_pair(f1, f2, b1, b1, s)


# --------------------------------------------------------------- text form

BUNDLE_TEXT = """
[bundle]
base = 1
fibre = 1
sigma = x0; x1 + x2
zeta = x0; 0
lambda = 0; x1; x0; 0
"""


def test_parse_bundle_text_roundtrip():
    b = parse_bundle_text(BUNDLE_TEXT)
    ref = standard_bundle(1, 1)
    assert (b.sigma, b.zeta, b.lam) == (ref.sigma, ref.zeta, ref.lam)
    assert verify_bundle(b).all_passed


def test_parse_bundle_text_natural_mode():
    b = parse_bundle_text(BUNDLE_TEXT + "mode = natural\n")
    assert b.mode == scalars.NATURAL


def test_parse_bundle_text_errors():
    with pytest.raises(PreconditionFailure):
        parse_bundle_text("[other]\nx = 1\n")
    with pytest.raises(PreconditionFailure):
        parse_bundle_text(BUNDLE_TEXT + "triv = x0; x1\n")


# ------------------------------------------------------------ display normal form


def _display_cases(mode):
    """The suites' identity-trivialized bundles, clean and faulted, and three constructions."""
    cases = {}
    for fault in (None, "corrupted-lambda"):
        for label, b in _bundle_families(mode, fault).items():
            if b.triv == identity_map(b.total, mode):
                cases[f"{label}:{fault or 'clean'}"] = b
    f = parse_polymap("x0^2; x0 + 1", 1, mode)
    cases["pullback"] = pullback_bundle(f, standard_bundle(2, 1, mode))
    cases["whitney"] = whitney_sum(standard_bundle(1, 1, mode), standard_bundle(1, 2, mode))
    for k in (1, 2, 3):
        cases[f"diffobj-{k}"] = bundle_from_diffobj(canonical_diffobj(k, mode))
    return cases


@pytest.mark.parametrize("mode, name", [(mode, name) for mode in MODES for name in _display_cases(mode)])
def test_display_bundle_inverts_display_blocks(mode, name):
    b = _display_cases(mode)[name]
    assert display_bundle(b.base, b.fibre, *display_blocks(b)) == b


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_diffobj_mu_is_the_identity(mode, k):
    # mu(a, b) = (a, 0) + (0, b) in T(A) = (tangent, point)
    assert diffobj_mu(canonical_diffobj(k, mode)) == identity_map(2 * k, mode)
