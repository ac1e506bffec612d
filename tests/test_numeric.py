"""Exact dual numbers and the exact difference quotient, and that the numeric rows can fail."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat import numeric, scalars
from tancat.cdc import cdc_D
from tancat.errors import DimensionMismatch, SemiringViolation
from tancat.numeric import dual_eval, fd_check
from tancat.parser import parse_polymap
from tancat.poly import Poly, PolyMap, eval_polymap, poly_scale, random_polymap
from tancat.suites import run_suite


def failing(report):
    return {c.name: c.counterexample for c in report.checks if c.status != "pass"}


# ------------------------------------------------------------- properties


@st.composite
def cases(draw, mode):
    """(f, point, direction): Fraction coefficients and a Fraction point in rational mode."""
    m = draw(st.integers(1, 3), label="dom")
    lo = 0 if mode == scalars.NATURAL else -5
    term = st.tuples(st.tuples(*[st.integers(0, 4)] * m), st.integers(lo, 5))
    cod = draw(st.integers(1, 2))
    comps = [Poly.from_terms(m, draw(st.lists(term, max_size=4)), mode) for _ in range(cod)]
    if mode == scalars.NATURAL:
        scalar = st.integers(0, 10**6)
    else:
        scale = draw(st.fractions(-7, 7, max_denominator=9), label="scale")
        comps = [poly_scale(c, scale) for c in comps]
        scalar = st.fractions(-(10**6), 10**6, max_denominator=50)
    coords = st.lists(scalar, min_size=m, max_size=m)
    return PolyMap(m, len(comps), tuple(comps), mode), draw(coords, label="x"), draw(coords, label="v")


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dual_eval_is_the_value_and_the_derivative_along_the_direction(mode, data):
    f, point, direction = data.draw(cases(mode))
    values, tangents = dual_eval(f, point, direction)
    assert values == eval_polymap(f, point)
    assert tangents == eval_polymap(cdc_D(f), direction + point)
    assert fd_check(f, point, direction) == (0,) * f.cod


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dual_eval_agrees_with_sympy(sympy, mode, data):
    """Each tangent is d/dt f_i(x + t*v) at t = 0, by sympy's derivative."""
    f, point, direction = data.draw(cases(mode))
    t = sympy.Symbol("t")
    line = [sympy.Rational(x) + t * sympy.Rational(v) for x, v in zip(point, direction)]
    _, tangents = dual_eval(f, point, direction)
    for comp, tangent in zip(f.components, tangents):
        g = sum(
            (sympy.Rational(c) * sympy.Mul(*(y**e for y, e in zip(line, ev))) for ev, c in comp.terms),
            sympy.Integer(0),
        )
        assert sympy.diff(g, t).subs(t, 0) == sympy.Rational(tangent)


# ------------------------------------------------------------------ cases


def test_square_at_three():
    f = parse_polymap("x0^2", 1, scalars.RATIONAL)
    assert dual_eval(f, [3], [1]) == ((9,), (6,))
    assert eval_polymap(f, [3]) == (9,)


def test_zero_direction_gives_zero_tangent():
    rng = Random(13)
    for mode in scalars.MODES:
        for _ in range(10):
            f = random_polymap(rng.randint(1, 3), 2, 3, rng, mode)
            point = [rng.randint(0, 10**6) for _ in range(f.dom)]
            assert dual_eval(f, point, [0] * f.dom)[1] == (0, 0)


def test_constant_program_has_zero_tangent():
    f = parse_polymap("7", 2, scalars.RATIONAL)
    assert dual_eval(f, [Fraction(3, 2), Fraction(-5, 2)], [1, 1]) == ((7,), (0,))


def test_dual_arithmetic_product_rule():
    # x0 = 3 + eps, x1 = 5 + 2 eps
    product = parse_polymap("x0*x1", 2, scalars.RATIONAL)
    assert dual_eval(product, [3, 5], [1, 2]) == ((15,), (3 * 2 + 5 * 1,))
    total = parse_polymap("x0 + x1", 2, scalars.RATIONAL)
    assert dual_eval(total, [3, 5], [1, 2])[1] == (3,)


def test_fd_matches_dual_on_cubics():
    rng = Random(4)
    for _ in range(20):
        f = random_polymap(rng.randint(1, 3), rng.randint(1, 2), 3, rng, scalars.RATIONAL)
        point = [Fraction(rng.randint(-15, 15), rng.randint(1, 10)) for _ in range(f.dom)]
        direction = [Fraction(rng.randint(-15, 15), rng.randint(1, 10)) for _ in range(f.dom)]
        assert fd_check(f, point, direction) == (0,) * f.cod


def test_fd_is_tight_on_affine_maps():
    f = parse_polymap("3*x0 - 2*x1 + 1; x1", 2, scalars.RATIONAL)
    rng = Random(6)
    for _ in range(10):
        point = [rng.randint(-(10**6), 10**6) for _ in range(2)]
        direction = [rng.randint(-(10**6), 10**6) for _ in range(2)]
        assert fd_check(f, point, direction) == (0, 0)


def test_fd_constant_is_zero():
    assert fd_check(parse_polymap("4", 1, scalars.RATIONAL), [Fraction(3, 10)], [1]) == (0,)


def test_fd_reports_the_gap_to_a_wrong_tangent(monkeypatch):
    f = parse_polymap("x0^3", 1, scalars.RATIONAL)
    monkeypatch.setattr(numeric, "dual_eval", lambda f, x, v: ((8,), (13,)))
    # g(t) = (2 + t)^3 has g'(0) = 12
    assert fd_check(f, [2], [1]) == (-1,)


def test_fractional_coefficients_evaluate():
    f = parse_polymap("1/2*x0", 1, scalars.RATIONAL)
    assert dual_eval(f, [4], [2]) == ((2,), (1,))
    assert dual_eval(f, [Fraction(1, 3)], [1]) == ((Fraction(1, 6),), (Fraction(1, 2),))


def test_points_are_scalars_of_the_map():
    f = parse_polymap("x0", 1, scalars.NATURAL)
    with pytest.raises(SemiringViolation):
        dual_eval(f, [-1], [1])
    with pytest.raises(TypeError):
        dual_eval(f, [1.5], [1])
    with pytest.raises(DimensionMismatch):
        dual_eval(f, [1, 2], [1])


def test_dense_program_evaluates_without_recursion():
    # 1,771 terms: the sum is one long left-nested chain of additions
    f = parse_polymap("(x0+x1+x2+1)^20", 3, scalars.RATIONAL)
    assert len(f.components[0].terms) == 1771
    point, direction = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 8)], [1, Fraction(-1, 2), 2]
    values, tangents = dual_eval(f, point, direction)
    assert values == eval_polymap(f, point) == (Fraction(15, 8) ** 20,)
    slope = 20 * Fraction(15, 8) ** 19 * Fraction(5, 2)
    assert tangents == eval_polymap(cdc_D(f), direction + point) == (slope,)


# ------------------------------------------------------- the rows can fail


def d_dropping_a_term(f: PolyMap) -> PolyMap:
    """D f without the leading term of each component that has more than one."""
    d = cdc_D(f)
    comps = tuple(Poly(p.nvars, p.terms[1:], p.mode) if len(p.terms) > 1 else p for p in d.components)
    return PolyMap(d.dom, d.cod, comps, d.mode)


def dual_eval_without_power_rule(f: PolyMap, point, direction):
    """dual_eval without the a*e*x^(e-1)*v term of the product rule: every jet keeps the tangent 0."""
    values, _ = dual_eval(f, point, direction)
    return values, (0,) * f.cod


@pytest.mark.parametrize("mode", scalars.MODES)
def test_a_d_that_drops_a_term_fails_dual_vs_symbolic(monkeypatch, mode):
    monkeypatch.setattr("tancat.suites.cdc_D", d_dropping_a_term)
    rep = run_suite("numeric-consistency", mode=mode)
    assert set(failing(rep)) == {"dual-vs-symbolic"}
    assert failing(rep)["dual-vs-symbolic"].startswith("instance 0: ")


def test_the_modes_draw_different_counterexamples(monkeypatch):
    monkeypatch.setattr("tancat.suites.cdc_D", d_dropping_a_term)
    rational, natural = (failing(run_suite("numeric-consistency", mode=m)) for m in scalars.MODES)
    assert rational["dual-vs-symbolic"] != natural["dual-vs-symbolic"]
    # a natural map, point and direction print without a minus sign
    assert "-" not in natural["dual-vs-symbolic"].split("; lhs")[0]


@pytest.mark.parametrize("mode", scalars.MODES)
def test_a_dual_eval_without_the_power_rule_fails_fd_vs_dual(monkeypatch, mode):
    monkeypatch.setattr("tancat.numeric.dual_eval", dual_eval_without_power_rule)
    rep = run_suite("numeric-consistency", mode=mode)
    assert {"fd-vs-dual", "affine-fd-tight"} <= set(failing(rep))
