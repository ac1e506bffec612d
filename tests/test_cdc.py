"""Differential combinator and tangent structure on polynomial maps.

The independent oracle reads D(f) off as the coefficient of t in the
expansion f(x + t*u); no partial derivatives are involved, so agreement
with the combinator is a real cross-check.
"""

from fractions import Fraction
from random import Random

from tancat import scalars
from tancat.cdc import (
    PolyTangentModel,
    cdc_D,
    cdc_T,
    cdc_ell,
    cdc_flip,
    point_proj,
    t_n_carrier,
    tangent_plus,
    tangent_zero,
)
from tancat.model import monad_mult, vertical_lift_v
from tancat.parser import parse_polymap
from tancat.poly import (
    Poly,
    PolyMap,
    eval_polymap,
    identity_map,
    poly_add,
    poly_mul,
    poly_subst,
    polymap_compose,
    polymap_proj,
    polymap_to_str,
    random_polymap,
)

# ---------------------------------------------------------------- oracle

def d_oracle(f: PolyMap) -> PolyMap:
    """Coefficient of t in f(x + t*u), laid out on (u, x)."""
    m = f.dom
    n = 2 * m + 1  # u block, x block, then t
    t = Poly.variable(n, 2 * m, f.mode)
    args = []
    for i in range(m):
        xi = Poly.variable(n, m + i, f.mode)
        ui = Poly.variable(n, i, f.mode)
        args.append(poly_add(xi, poly_mul(t, ui)))
    comps = []
    for comp in f.components:
        expanded = poly_subst(comp, args)
        linear = [(ev[: 2 * m], c) for ev, c in expanded.terms if ev[2 * m] == 1]
        comps.append(Poly.from_terms(2 * m, linear, f.mode))
    return PolyMap(2 * m, f.cod, tuple(comps), f.mode)


def test_d_matches_t_coefficient_oracle():
    rng = Random(31)
    for mode in scalars.MODES:
        for _ in range(30):
            f = random_polymap(rng.randint(1, 3), rng.randint(1, 3), 3, rng, mode)
            assert cdc_D(f) == d_oracle(f)


def test_square_differentiates_to_2xu():
    f = parse_polymap("x0^2", 1, scalars.RATIONAL)
    d = cdc_D(f)
    assert polymap_to_str(d) == "2*x0*x1"  # internally (u, x) = (x0, x1)
    assert eval_polymap(d, [Fraction(1), Fraction(3)]) == (Fraction(6),)


def test_identity_and_projection_rules():
    assert cdc_D(identity_map(2, scalars.RATIONAL)) == polymap_proj(4, 0, 2, scalars.RATIONAL)
    for i in range(3):
        pi = polymap_proj(3, i, i + 1, scalars.RATIONAL)
        want = polymap_compose(polymap_proj(6, 0, 3, scalars.RATIONAL), pi)
        assert cdc_D(pi) == want


def test_tangent_functor_layout():
    f = parse_polymap("x0^2", 1, scalars.RATIONAL)
    assert polymap_to_str(cdc_T(f)) == "2*x0*x1; x1^2"
    assert cdc_T(identity_map(3, scalars.RATIONAL)) == identity_map(6, scalars.RATIONAL)


def test_tangent_functor_is_functorial_on_example():
    f = parse_polymap("x0 + 1", 1, scalars.RATIONAL)
    g = parse_polymap("x0^2", 1, scalars.RATIONAL)
    assert cdc_T(polymap_compose(f, g)) == polymap_compose(cdc_T(f), cdc_T(g))


def test_structural_maps_dimension_one():
    assert polymap_to_str(cdc_ell(1, scalars.RATIONAL)) == "x0; 0; 0; x1"
    c = cdc_flip(1, scalars.RATIONAL)
    assert polymap_to_str(c) == "x0; x2; x1; x3"
    assert polymap_compose(c, c) == identity_map(4, scalars.RATIONAL)


def test_ell_flip_fixed_point():
    for m in (1, 2, 3):
        ell = cdc_ell(m, scalars.RATIONAL)
        c = cdc_flip(m, scalars.RATIONAL)
        assert polymap_compose(ell, c) == ell


def test_vertical_lift_comparison_map():
    model = PolyTangentModel(scalars.RATIONAL)
    v = vertical_lift_v(model, 1)
    # T_2 carrier is (u, w, x); the image is the vertical 2-jet (u, 0, w, x)
    assert polymap_to_str(v) == "x0; 0; x1; x2"
    t2 = model.t_n(1, 2)
    p_of_t = cdc_T(point_proj(1, scalars.RATIONAL))
    lhs = polymap_compose(v, p_of_t)
    rhs = polymap_compose(
        polymap_compose(t2.projections[0], point_proj(1, scalars.RATIONAL)),
        tangent_zero(1, scalars.RATIONAL),
    )
    assert lhs == rhs
    assert polymap_compose(v, point_proj(2, scalars.RATIONAL)) == t2.projections[1]


def test_monad_mult_layout_and_projections():
    model = PolyTangentModel(scalars.RATIONAL)
    mu = monad_mult(model, 1)
    assert polymap_to_str(mu) == "x1 + x2; x3"
    p1 = point_proj(1, scalars.RATIONAL)
    lhs = polymap_compose(mu, p1)
    assert lhs == polymap_compose(point_proj(2, scalars.RATIONAL), p1)
    assert lhs == polymap_compose(cdc_T(p1), p1)


def test_monad_left_unit_through_zero():
    model = PolyTangentModel(scalars.RATIONAL)
    for m in (1, 2):
        z = tangent_zero(m, scalars.RATIONAL)
        mu = monad_mult(model, m)
        assert polymap_compose(cdc_T(z), mu) == identity_map(2 * m, scalars.RATIONAL)
        assert polymap_compose(tangent_zero(2 * m, scalars.RATIONAL), mu) == identity_map(
            2 * m, scalars.RATIONAL
        )


def test_fibre_power_carriers():
    one = t_n_carrier(1, 1, scalars.RATIONAL)
    assert one.carrier == 2
    assert one.projections[0] == identity_map(2, scalars.RATIONAL)

    two = t_n_carrier(1, 2, scalars.RATIONAL)
    assert two.carrier == 3
    assert polymap_to_str(two.projections[0]) == "x0; x2"
    assert polymap_to_str(two.projections[1]) == "x1; x2"

    p1 = point_proj(1, scalars.RATIONAL)
    foots = {polymap_to_str(polymap_compose(pi, p1)) for pi in two.projections}
    assert foots == {"x2"}


def test_plus_and_zero_shapes():
    plus = tangent_plus(2, scalars.RATIONAL)
    assert plus.dom == 6 and plus.cod == 4
    z = tangent_zero(3, scalars.RATIONAL)
    assert polymap_to_str(z) == "0; 0; 0; x0; x1; x2"
