"""Exact polynomial arithmetic against independent term-level oracles.

The reference implementation below stores polynomials as plain
{exponent-vector: coefficient} dicts and never shares code with the
package, so agreement is meaningful evidence.
"""

import dataclasses
import gc
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tancat import params, scalars
from tancat import poly as poly_module
from tancat.errors import DimensionMismatch, SemiringViolation
from tancat.cdc import cdc_D
from tancat.poly import (
    Poly,
    _canonical,
    _mul_terms,
    _scaled,
    _var_index_each,
    PolyMap,
    coordinate_map,
    eval_polymap,
    identity_map,
    linear_map,
    partial_derivative,
    poly_add,
    poly_degree,
    poly_mul,
    poly_product,
    poly_scale,
    poly_shift_vars,
    poly_subst,
    poly_to_str,
    polymap_compose,
    polymap_pair,
    polymap_product,
    polymap_proj,
    polymap_to_str,
    random_polymap,
    zero_map,
)

# ---------------------------------------------------------------- reference

def ref_terms(p):
    return {ev: c for ev, c in p.terms}


def ref_add(a, b):
    out = dict(a)
    for ev, c in b.items():
        out[ev] = out.get(ev, 0) + c
    return {ev: c for ev, c in out.items() if c != 0}


def ref_mul(a, b, nvars):
    out = {}
    for ev1, c1 in a.items():
        for ev2, c2 in b.items():
            ev = tuple(ev1[i] + ev2[i] for i in range(nvars))
            out[ev] = out.get(ev, 0) + c1 * c2
    return {ev: c for ev, c in out.items() if c != 0}


def value(p, point):
    """p at a point, through the map whose one component is p."""
    return eval_polymap(PolyMap(p.nvars, 1, (p,), p.mode), point)[0]


def ref_partial(a, i):
    out = {}
    for ev, c in a.items():
        if ev[i] == 0:
            continue
        ev2 = ev[:i] + (ev[i] - 1,) + ev[i + 1 :]
        out[ev2] = out.get(ev2, 0) + c * ev[i]
    return {ev: c for ev, c in out.items() if c != 0}


def polys(mode=scalars.RATIONAL, max_vars=3):
    lo = 0 if mode == scalars.NATURAL else -5

    def build(nvars, items):
        return Poly.from_terms(
            nvars, [(tuple(ev), c) for ev, c in items], mode
        )

    return st.integers(1, max_vars).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, 3), min_size=n, max_size=n),
                    st.integers(lo, 5),
                ),
                max_size=5,
            ),
        )
    )


def paired_polys(mode=scalars.RATIONAL):
    # two polynomials over the same variable count
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(polys_at(n, mode), polys_at(n, mode))
    )


def polys_at(nvars, mode):
    lo = 0 if mode == scalars.NATURAL else -5
    return st.builds(
        lambda items: Poly.from_terms(
            nvars, [(tuple(ev), c) for ev, c in items], mode
        ),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars),
                st.integers(lo, 5),
            ),
            max_size=5,
        ),
    )


# ------------------------------------------------------------------- laws

@settings(max_examples=60)
@given(paired_polys())
def test_add_matches_reference(pq):
    p, q = pq
    assert ref_terms(poly_add(p, q)) == ref_add(ref_terms(p), ref_terms(q))


@settings(max_examples=60)
@given(paired_polys())
def test_mul_matches_reference(pq):
    p, q = pq
    assert ref_terms(poly_mul(p, q)) == ref_mul(ref_terms(p), ref_terms(q), p.nvars)


def power(p, e):
    """p^e through the packed product."""
    return poly_product(((p, e),))


def old_mul(a, b):
    """a * b by the tuple-keyed product loop the parser used before the packed product."""
    return Poly(a.nvars, _canonical(_mul_terms({}, a.terms, b.terms)), a.mode)


def old_pow(p, e):
    """p^e by the tuple-keyed product loop, one factor of p at a time."""
    out = Poly.constant(p.nvars, 1, p.mode)
    for _ in range(e):
        out = old_mul(out, p)
    return out


def rational_polys(nvars):
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    exponents = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)
    items = st.lists(st.tuples(exponents, coeff), max_size=4)
    return items.map(lambda its: Poly.from_terms(nvars, [(tuple(ev), c) for ev, c in its], scalars.RATIONAL))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(lambda n: st.tuples(rational_polys(n), points(n, scalars.RATIONAL))),
       st.integers(0, 5))
def test_pow_agrees_with_evaluation_and_the_tuple_keyed_loop(p_pt, e):
    p, pt = p_pt
    got = power(p, e)
    assert value(got, pt) == value(p, pt) ** e
    assert got == old_pow(p, e)


def test_pow_and_mul_edge_cases():
    for mode in scalars.MODES:
        zero, one = Poly.zero(2, mode), Poly.constant(2, 1, mode)
        x = Poly.from_terms(2, [((1, 0), 1), ((0, 1), 2), ((0, 0), 3)], mode)
        assert power(x, 0) == one and power(zero, 0) == one
        assert power(zero, 3) == zero and power(x, 1) == x
        assert poly_mul(x, zero) == zero == poly_mul(zero, x)
        c = Poly.constant(0, 3, mode)  # no variables: every exponent vector is ()
        assert power(c, 3) == Poly.constant(0, 27, mode) == poly_mul(c, power(c, 2))
    with pytest.raises(ValueError):
        power(Poly.variable(1, 0, scalars.RATIONAL), -1)
    # (x0 + 1)*(x0 - 1) and (x0/2 + 1/2)*(2*x0 - 2) cancel their middle terms
    a = Poly.from_terms(1, [((1,), 1), ((0,), 1)], scalars.RATIONAL)
    b = Poly.from_terms(1, [((1,), 1), ((0,), -1)], scalars.RATIONAL)
    assert poly_to_str(poly_mul(a, b)) == "x0^2 - 1"
    assert poly_mul(poly_scale(a, Fraction(1, 2)), poly_scale(b, 2)).terms == (((2,), 1), ((0,), -1))


@pytest.mark.parametrize("bits", range(1, 7))
def test_packed_exponent_fields_never_carry(bits):
    """Products whose exponents fill a field exactly (2**bits - 1) or need one
    more bit (2**bits), checked against the reference and the old loop."""
    for degree in (2**bits - 1, 2**bits):
        j = degree // 2
        a = Poly.from_terms(3, [((j, 0, 0), 1), ((0, degree - j, 0), 2), ((0, 0, 1), -1)], scalars.RATIONAL)
        b = Poly.from_terms(3, [((degree - j, 0, 0), 3), ((0, j, 0), 1), ((0, 0, 0), 1)], scalars.RATIONAL)
        assert ref_terms(poly_mul(a, b)) == ref_mul(ref_terms(a), ref_terms(b), 3)
        assert (degree, 0, 0) in ref_terms(poly_mul(a, b))
        s = Poly.from_terms(2, [((1, 0), 1), ((0, 1), 1)], scalars.NATURAL)
        assert power(s, degree) == old_pow(s, degree)
        assert power(s, degree).terms[0] == ((degree, 0), 1)


def affine_bases(nvars, mode, rng):
    """Affine polynomials with a nonzero constant term: over every variable, over some, and a constant.

    Rational coefficients are negative and fractional as often as not.
    """
    def scalar():
        if mode == scalars.NATURAL:
            return rng.randint(1, 4)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3)))

    units = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
    zero = (0,) * nvars
    some = rng.sample(units, max(1, nvars // 2))
    return [Poly.from_terms(nvars, [(ev, scalar()) for ev in evs] + [(zero, scalar())], mode)
            for evs in (units, some, [])]


@pytest.mark.parametrize("mode", scalars.MODES)
@pytest.mark.parametrize("nvars", range(1, 5))
def test_affine_powers_by_miller_agree_with_the_tuple_keyed_loop_and_evaluation(mode, nvars):
    """p^e for e = 0..20 in each call shape that takes Miller's recurrence: p^e alone, as the parser
    passes a power, and with a factor after it, a constant or not."""
    rng = Random(nvars)
    c = 3 if mode == scalars.NATURAL else Fraction(-3, 2)
    q = Poly.from_terms(nvars, [((1,) + (0,) * (nvars - 1), 1), ((0,) * nvars, 2)], mode)
    pt = [rng.randint(0, 3) if mode == scalars.NATURAL else Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
          for _ in range(nvars)]
    for p in affine_bases(nvars, mode, rng):
        ref = Poly.constant(nvars, 1, mode)
        for e in range(21):
            assert power(p, e) == ref and value(ref, pt) == value(p, pt) ** e
            got = poly_product(((p, e), (Poly.constant(nvars, c, mode), 1)))
            assert got.terms == tuple((ev, scalars.coerce(mode, c * c2)) for ev, c2 in ref.terms)
            assert poly_product(((p, e), (q, 1))) == old_mul(ref, q)
            assert_canonical_types(ref)
            assert_canonical_types(got)
            ref = old_mul(ref, p)


def test_miller_is_taken_only_for_an_affine_base_with_a_constant_term():
    """A base of degree 2, or with no constant term, or a power after a non-constant first factor,
    goes one factor per step, and agrees with the tuple-keyed loop; so does an affine power after a
    constant, which Miller's recurrence builds.  In (x0^2 - 2*x0 + 1/2)^e
    the binomial parts C(e, k) * (1/2)^(e - k) * (x0^2 - 2*x0)^k share monomials."""
    r = scalars.RATIONAL
    one, x1_plus_1 = Poly.constant(2, 1, r), Poly.from_terms(2, [((0, 1), 1), ((0, 0), 1)], r)
    three = Poly.constant(2, 3, r)
    cases = [
        (one, Poly.from_terms(2, [((2, 0), 1), ((1, 0), -2), ((0, 0), Fraction(1, 2))], r)),
        (one, Poly.from_terms(2, [((1, 0), 3), ((0, 1), -2)], r)),
        (three, Poly.from_terms(2, [((1, 0), 2), ((0, 0), -1)], r)),
        (x1_plus_1, Poly.from_terms(2, [((1, 0), 2), ((0, 0), -1)], r)),
    ]
    for p, f in cases:
        for e in range(6):
            assert poly_product(((p, 1), (f, e))) == old_mul(p, old_pow(f, e))
            if p == one:
                assert poly_product(((f, e),)) == old_pow(f, e)
            else:
                assert poly_product(((p, e), (f, 1))) == old_mul(old_pow(p, e), f)


def test_miller_runs_exactly_when_the_first_factor_raised_is_affine_with_a_constant_term(monkeypatch):
    """Miller's recurrence builds the power of the first non-constant factor with a nonzero count,
    and only when that factor is affine with a nonzero constant term and its count is at least 2;
    constant factors are folded into one scalar wherever they stand."""
    calls = []
    real = poly_module._affine_power

    def spy(l0, linear, e):
        calls.append(e)
        return real(l0, linear, e)

    monkeypatch.setattr(poly_module, "_affine_power", spy)
    r = scalars.RATIONAL
    affine = Poly.from_terms(2, [((1, 0), 1), ((0, 1), 2), ((0, 0), Fraction(-1, 2))], r)
    linear = Poly.from_terms(2, [((1, 0), 3), ((0, 1), -2)], r)
    square = Poly.from_terms(2, [((2, 0), 1), ((0, 0), 1)], r)
    three, zero = Poly.constant(2, 3, r), Poly.zero(2, r)
    cases = [
        ([(affine, 3)], [3]),
        ([(affine, 1)], []),  # one factor to the first power comes back as it is
        ([(affine, 1), (linear, 1)], []),  # a count of 1 is the factor itself
        ([(affine, 1), (affine, 2)], []),
        ([(three, 1), (affine, 3)], [3]),  # a leading constant does not take Miller's slot
        ([(three, 1), (affine, 3), (three, 2)], [3]),
        ([(three, 2)], []),
        ([(linear, 0), (affine, 2), (square, 1)], [2]),  # the first factor with a nonzero count
        ([(affine, 0), (linear, 2)], []),
        ([(square, 2), (affine, 2)], []),
        ([(linear, 1), (affine, 2)], []),
        ([(affine, 2), (zero, 1)], []),
        ([(affine, 0), (zero, 0)], []),
    ]
    for factors, expected in cases:
        calls.clear()
        got = poly_product(factors)
        assert calls == expected, factors
        want = Poly.constant(2, 1, r)
        for f, count in factors:
            want = old_mul(want, old_pow(f, count))
        assert got == want


def product_factor(nvars, mode, rng):
    """A random factor base: sparse, constant, zero, or affine with or without a constant term."""
    def scalar():
        if mode == scalars.NATURAL:
            return rng.randint(1, 4)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3)))

    zero = (0,) * nvars
    units = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
    kind = rng.choice(("sparse", "constant", "zero", "affine", "linear"))
    if kind == "sparse":
        evs = {tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 4))}
    elif kind == "constant":
        evs = {zero}
    elif kind == "zero":
        evs = set()
    else:
        evs = set(rng.sample(units, rng.randint(1, nvars))) if nvars else set()
        if kind == "affine":
            evs.add(zero)
    return Poly.from_terms(nvars, [(ev, scalar()) for ev in evs], mode)


@pytest.mark.parametrize("mode", scalars.MODES)
@pytest.mark.parametrize("nvars", range(4))
def test_products_of_factor_lists_agree_with_the_tuple_keyed_chain(mode, nvars):
    """1-4 factors, counts 0-4: the packed product equals old_mul of every factor, one at a time."""
    rng = Random(100 * nvars + len(mode))
    for _ in range(60):
        factors = [(product_factor(nvars, mode, rng), rng.randint(0, 4)) for _ in range(rng.randint(1, 4))]
        want = Poly.constant(nvars, 1, mode)
        for f, count in factors:
            for _ in range(count):
                want = old_mul(want, f)
        got = poly_product(factors)
        assert got == want, factors
        assert_canonical_types(got)


@pytest.mark.parametrize("mode", scalars.MODES)
def test_scaled_is_the_product_of_each_coefficient(mode):
    """_scaled agrees with c2 * c term by term, in order, and an integral product is an int."""
    if mode == scalars.NATURAL:
        cs = coeffs = [1, 2, 7]
    else:
        cs = [1, -1, 3, Fraction(1, 2), Fraction(-4, 3), Fraction(7, 6)]
        coeffs = [1, -2, 6, 5, Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3), Fraction(9, 7)]
    terms = tuple(((k, 0), c2) for k, c2 in enumerate(coeffs))
    for c in cs:
        got = _scaled(terms, c)
        assert got == [(ev, c2 * c) for ev, c2 in terms]
        assert_canonical_types(Poly(2, tuple(got), mode))
    assert _scaled((((1,), 2),), Fraction(1, 2)) == [((1,), 1)]
    assert type(_scaled((((1,), 2),), Fraction(1, 2))[0][1]) is int
    assert type(_scaled((((1,), Fraction(2, 3)),), Fraction(3, 2))[0][1]) is int
    assert _scaled((), Fraction(1, 2)) == []


@pytest.mark.parametrize("mode", scalars.MODES)
def test_poly_scale_by_zero_is_the_zero_polynomial(mode):
    p = Poly.from_terms(2, [((1, 0), 2), ((0, 0), 3)], mode)
    assert poly_scale(p, 0) == Poly.zero(2, mode) == poly_scale(p, Fraction(0))
    assert poly_scale(p, Fraction(4, 2)).terms == (((1, 0), 4), ((0, 0), 6))
    assert type(poly_scale(p, Fraction(4, 2)).terms[0][1]) is int


def test_rational_terms_hold_int_for_integral_coefficients():
    half = Fraction(1, 2)
    p = Poly.from_terms(2, [((2, 0), half), ((1, 1), Fraction(4, 2)), ((0, 0), 3)], scalars.RATIONAL)
    q = Poly.from_terms(2, [((0, 1), half), ((0, 0), Fraction(3, 2))], scalars.RATIONAL)
    results = [
        p,
        q,
        poly_add(q, q),
        poly_mul(p, poly_scale(q, 2)),
        power(poly_scale(q, 2), 3),
        power(q, 3),
        partial_derivative(p, 0),
        poly_subst(p, [poly_scale(q, 2), q]),
        cdc_D(PolyMap(2, 2, (p, q), scalars.RATIONAL)).components[0],
        polymap_compose(
            coordinate_map(1, (0, 0), scalars.RATIONAL), PolyMap(2, 1, (q,), scalars.RATIONAL)
        ).components[0],
    ]
    for r in results:
        for _, c in r.terms:
            assert type(c) is (int if c.denominator == 1 else Fraction)
    assert {type(c) for r in results for _, c in r.terms} == {int, Fraction}
    assert partial_derivative(p, 0).terms == (((1, 0), 1), ((0, 1), 2))


@settings(max_examples=60)
@given(paired_polys())
def test_commutativity(pq):
    p, q = pq
    assert poly_add(p, q) == poly_add(q, p)
    assert poly_mul(p, q) == poly_mul(q, p)


@settings(max_examples=40)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*(polys_at(n, scalars.RATIONAL),) * 3)))
def test_associativity_and_distributivity(pqr):
    p, q, r = pqr
    assert poly_add(poly_add(p, q), r) == poly_add(p, poly_add(q, r))
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
    assert poly_mul(p, poly_add(q, r)) == poly_add(poly_mul(p, q), poly_mul(p, r))


@settings(max_examples=60)
@given(polys())
def test_units_and_annihilation(p):
    zero = Poly.zero(p.nvars, p.mode)
    one = Poly.constant(p.nvars, 1, p.mode)
    assert poly_add(p, zero) == p
    assert poly_mul(p, one) == p
    assert poly_mul(p, zero) == zero


@settings(max_examples=60)
@given(paired_polys(), st.integers(0, 2))
def test_leibniz_rule(pq, i):
    p, q = pq
    if i >= p.nvars:
        i = 0
    lhs = partial_derivative(poly_mul(p, q), i)
    rhs = poly_add(
        poly_mul(partial_derivative(p, i), q),
        poly_mul(p, partial_derivative(q, i)),
    )
    assert lhs == rhs


@settings(max_examples=60)
@given(polys(), st.data())
def test_subst_agrees_with_eval(p, data):
    """Composition then evaluation equals evaluation then evaluation."""
    args = [
        data.draw(polys_at(2, scalars.RATIONAL), label=f"arg{i}")
        for i in range(p.nvars)
    ]
    point = [Fraction(data.draw(st.integers(-4, 4))) for _ in range(2)]
    composed = poly_subst(p, args)
    inner = [value(a, point) for a in args]
    assert value(composed, point) == value(p, inner)


@settings(max_examples=40)
@given(polys())
def test_shift_vars_preserves_values(p):
    shifted = poly_shift_vars(p, 2, p.nvars + 3)
    rng = Random(5)
    for _ in range(5):
        point = [Fraction(rng.randint(-3, 3)) for _ in range(p.nvars + 3)]
        assert value(shifted, point) == value(p, point[2 : 2 + p.nvars])


@settings(max_examples=60)
@given(polys())
def test_canonical_form_is_stable(p):
    # terms sorted graded-lex descending, no zero coefficients
    assert all(c != 0 for _, c in p.terms)
    keys = [(sum(ev), ev) for ev, _ in p.terms]
    assert keys == sorted(keys, reverse=True)
    assert Poly.from_terms(p.nvars, p.terms, p.mode) == p
    # so the first term has the largest total degree, which poly_degree reads
    assert poly_degree(p) == max((sum(ev) for ev, _ in p.terms), default=0)


# --------------------------------------------------------- frozen examples

def test_addition_frozen_examples():
    x0sq = Poly.from_terms(1, [((2,), 1)], scalars.RATIONAL)
    p = poly_add(poly_add(x0sq, Poly.constant(1, 1, scalars.RATIONAL)),
                 poly_scale(x0sq, Fraction(2)))
    assert poly_to_str(p) == "3*x0^2 + 1"
    x0 = Poly.variable(1, 0, scalars.RATIONAL)
    assert poly_to_str(poly_add(x0, x0)) == "2*x0"


def test_multiplication_frozen_example():
    x0p1 = poly_add(Poly.variable(1, 0, scalars.RATIONAL),
                    Poly.constant(1, 1, scalars.RATIONAL))
    assert poly_to_str(poly_mul(x0p1, x0p1)) == "x0^2 + 2*x0 + 1"


def test_partial_derivative_frozen_examples():
    p = Poly.from_terms(2, [((2, 1), 1)], scalars.RATIONAL)
    assert poly_to_str(partial_derivative(p, 0)) == "2*x0*x1"
    assert poly_to_str(partial_derivative(p, 1)) == "x0^2"
    const = Poly.constant(2, 9, scalars.RATIONAL)
    assert partial_derivative(const, 0) == Poly.zero(2, scalars.RATIONAL)


def test_partials_match_reference():
    rng = Random(3)
    for _ in range(25):
        f = random_polymap(3, 1, 3, rng, scalars.RATIONAL)
        p = f.components[0]
        for i in range(3):
            assert ref_terms(partial_derivative(p, i)) == ref_partial(ref_terms(p), i)


# d/dx_j f is D f precomposed with x |-> (e_j, x): the same frozen examples,
# product rule and reference as partial_derivative, read off cdc_D

def partial_via_D(p, j):
    m = p.nvars
    unit = [Poly.constant(m, int(k == j), p.mode) for k in range(m)]
    at_e_j = polymap_pair(PolyMap(m, m, tuple(unit), p.mode), identity_map(m, p.mode))
    return polymap_compose(at_e_j, cdc_D(PolyMap(m, 1, (p,), p.mode))).components[0]


def test_partial_via_D_frozen_examples():
    p = Poly.from_terms(2, [((2, 1), 1)], scalars.RATIONAL)
    assert poly_to_str(partial_via_D(p, 0)) == "2*x0*x1"
    assert poly_to_str(partial_via_D(p, 1)) == "x0^2"
    const = Poly.constant(2, 9, scalars.RATIONAL)
    assert partial_via_D(const, 0) == Poly.zero(2, scalars.RATIONAL)


@settings(max_examples=60)
@given(paired_polys(), st.integers(0, 2))
def test_leibniz_rule_via_D(pq, i):
    p, q = pq
    if i >= p.nvars:
        i = 0
    lhs = partial_via_D(poly_mul(p, q), i)
    rhs = poly_add(poly_mul(partial_via_D(p, i), q), poly_mul(p, partial_via_D(q, i)))
    assert lhs == rhs == partial_derivative(poly_mul(p, q), i)


def test_partials_via_D_match_reference():
    rng = Random(3)
    for _ in range(25):
        p = random_polymap(3, 1, 3, rng, scalars.RATIONAL).components[0]
        for i in range(3):
            assert ref_terms(partial_via_D(p, i)) == ref_partial(ref_terms(p), i)


# ----------------------------------------------------------------- polymaps

def test_compose_substitution_example():
    f = PolyMap(1, 1, (Poly.from_terms(1, [((2,), 1)], scalars.RATIONAL),), scalars.RATIONAL)
    g = PolyMap(1, 1, (poly_add(Poly.variable(1, 0, scalars.RATIONAL),
                                Poly.constant(1, 1, scalars.RATIONAL)),), scalars.RATIONAL)
    assert polymap_to_str(polymap_compose(f, g)) == "x0^2 + 1"


def test_identity_laws():
    rng = Random(9)
    for _ in range(10):
        f = random_polymap(2, 3, 3, rng, scalars.RATIONAL)
        assert polymap_compose(identity_map(2, scalars.RATIONAL), f) == f
        assert polymap_compose(f, identity_map(3, scalars.RATIONAL)) == f


def test_pairing_and_projections():
    diag = polymap_pair(
        polymap_proj(1, 0, 1, scalars.RATIONAL),
        polymap_proj(1, 0, 1, scalars.RATIONAL),
    )
    assert polymap_to_str(diag) == "x0; x0"
    rng = Random(21)
    f = random_polymap(2, 2, 3, rng, scalars.RATIONAL)
    g = random_polymap(2, 1, 3, rng, scalars.RATIONAL)
    fg = polymap_pair(f, g)
    assert polymap_compose(fg, polymap_proj(3, 0, 2, scalars.RATIONAL)) == f
    assert polymap_compose(fg, polymap_proj(3, 2, 3, scalars.RATIONAL)) == g


def test_equality_is_canonical():
    x0 = Poly.variable(2, 0, scalars.RATIONAL)
    x1 = Poly.variable(2, 1, scalars.RATIONAL)
    assert poly_add(x0, x1) == poly_add(x1, x0)
    assert poly_mul(x0, x0) != x0
    f = PolyMap(2, 1, (poly_add(x0, x1),), scalars.RATIONAL)
    g = PolyMap(2, 1, (poly_add(x1, x0),), scalars.RATIONAL)
    assert f == g


@pytest.mark.parametrize("mode", scalars.MODES)
def test_linear_map_reads_a_matrix_at_an_offset(mode):
    # rows over x1, x2 inside three variables: the matrix read after the slice projection; zeros dropped
    f = polymap_compose(polymap_proj(3, 1, 3, mode), linear_map(2, [[2, 0], [0, 0], [1, 3]], mode))
    assert (f.dom, f.cod, f.mode) == (3, 3, mode)
    assert polymap_to_str(f) == "2*x1; 0; x1 + 3*x2"
    assert f.components[0].terms == (((0, 1, 0), 2),)
    assert linear_map(2, [[1, 0], [0, 1]], mode) == identity_map(2, mode)


def test_natural_mode_closure():
    n = Poly.from_terms(1, [((1,), 3)], scalars.NATURAL)
    assert poly_add(n, n).terms == (((1,), 6),)
    with pytest.raises(SemiringViolation):
        Poly.from_terms(1, [((1,), -3)], scalars.NATURAL)
    with pytest.raises(SemiringViolation):
        poly_scale(n, -1)


def test_mode_and_arity_mismatches_rejected():
    p = Poly.variable(1, 0, scalars.RATIONAL)
    q = Poly.variable(2, 0, scalars.RATIONAL)
    with pytest.raises(DimensionMismatch):
        poly_add(p, q)
    with pytest.raises(DimensionMismatch):
        poly_mul(p, q)
    # every factor of a product is checked, also one raised to the power 0
    natural = Poly.variable(1, 0, scalars.NATURAL)
    for factors in (((p, 1), (q, 1)), ((p, 2), (q, 0)), ((p, 1), (natural, 1)), ((p, 0), (natural, 0))):
        with pytest.raises(DimensionMismatch):
            poly_product(factors)
    with pytest.raises(DimensionMismatch):
        Poly.variable(2, 5, scalars.RATIONAL)
    with pytest.raises(DimensionMismatch):
        PolyMap(1, 2, (p,), scalars.RATIONAL)


def test_random_polymap_contract():
    a = random_polymap(2, 3, 3, Random(42), scalars.RATIONAL)
    b = random_polymap(2, 3, 3, Random(42), scalars.RATIONAL)
    assert a == b and a.dom == 2 and a.cod == 3
    const = random_polymap(1, 1, 0, Random(0), scalars.RATIONAL)
    assert all(sum(ev) == 0 for ev, _ in const.components[0].terms)
    with pytest.raises(ValueError, match="max_degree"):
        random_polymap(1, 1, -1, Random(0), scalars.RATIONAL)
    for cod in (0, 2):
        with pytest.raises(ValueError, match="unknown scalar mode"):
            random_polymap(1, cod, 2, Random(0), "bogus")


def reference_random_polymap(dom, cod, max_degree, rng, mode):
    """random_polymap as it was written on randint, randrange and Poly.from_terms."""
    comps = []
    for _ in range(cod):
        items = []
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(0, max_degree)
            ev = [0] * dom
            for _ in range(degree if dom else 0):
                ev[rng.randrange(dom)] += 1
            items.append((tuple(ev), rng.randint(0 if mode == scalars.NATURAL else -scalars.COEFF_BOUND,
                                                 scalars.COEFF_BOUND)))
        comps.append(Poly.from_terms(dom, items, mode))
    return PolyMap(dom, cod, tuple(comps), mode)


def test_random_polymap_draws_as_randint_and_randrange_do():
    """Same maps and the same stream position, draw for draw, over 4,000 seeds and 700 shapes."""
    for seed in range(4000):
        dom, cod, max_degree = seed % 7, seed // 7 % 5, seed // 35 % 10
        mode = scalars.MODES[seed // 350 % 2]
        rng, ref = Random(seed), Random(seed)
        got = random_polymap(dom, cod, max_degree, rng, mode)
        want = reference_random_polymap(dom, cod, max_degree, ref, mode)
        assert [(c.nvars, c.terms, c.mode) for c in got.components] == [
            (c.nvars, c.terms, c.mode) for c in want.components]
        assert [type(c) for p in got.components for _, c in p.terms] == [
            type(c) for p in want.components for _, c in p.terms]
        assert got == want and rng.getstate() == ref.getstate()


def test_random_scalar_draws_as_randint_does():
    for seed in range(500):
        for mode in scalars.MODES:
            rng, ref = Random(seed), Random(seed)
            lo = 0 if mode == scalars.NATURAL else -scalars.COEFF_BOUND
            got = [scalars.random_scalar(mode, rng) for _ in range(20)]
            assert got == [ref.randint(lo, scalars.COEFF_BOUND) for _ in range(20)]
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 11, 2**32 - 1, 2**32, 2**70 + 3])
def test_randbelow_is_randrange(n):
    rng, ref = Random(n), Random(n)
    got = [scalars.randbelow(rng.getrandbits, n) for _ in range(200)]
    assert got == [ref.randrange(n) for _ in range(200)]
    assert rng.getstate() == ref.getstate()


def test_substitution_leaves_no_cyclic_garbage():
    """Every poly_subst call frees what it built on return, with no work for the cyclic collector."""
    terms = [((3, 1), 2), ((0, 2), Fraction(-1, 2)), ((1, 0), 1), ((0, 0), 4)]
    p = Poly.from_terms(2, terms, scalars.RATIONAL)
    args = random_polymap(3, 2, 2, Random(5), scalars.RATIONAL).components
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            poly_subst(p, args)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_permutation_and_zero_maps():
    swap = coordinate_map(2, (1, 0), scalars.RATIONAL)
    assert polymap_to_str(swap) == "x1; x0"
    assert polymap_compose(swap, swap) == identity_map(2, scalars.RATIONAL)
    z = zero_map(2, 2, scalars.RATIONAL)
    assert eval_polymap(z, [Fraction(3), Fraction(4)]) == (0, 0)


@pytest.mark.parametrize("mode", scalars.MODES)
def test_coordinate_map_with_zero_images_is_the_pair_it_replaces(mode):
    def proj(dom, lo, hi):
        return polymap_proj(dom, lo, hi, mode)

    # the zero section (0, x), the lift (u, 0, 0, x) and the context freeze (a, v, x) |-> (0, v, a, x)
    assert coordinate_map(2, (None, None, 0, 1), mode) == polymap_pair(
        zero_map(2, 2, mode), identity_map(2, mode)
    )
    assert coordinate_map(4, (0, 1, None, None, None, None, 2, 3), mode) == polymap_pair(
        proj(4, 0, 2), zero_map(4, 4, mode), proj(4, 2, 4)
    )
    assert coordinate_map(4, (None, None, 2, 0, 1, 3), mode) == polymap_pair(
        zero_map(4, 2, mode), proj(4, 2, 3), proj(4, 0, 2), proj(4, 3, 4)
    )
    assert coordinate_map(3, (None, None), mode) == zero_map(3, 2, mode)


def test_coordinate_map_refuses_an_image_out_of_range_on_every_call():
    for _ in range(2):  # the cache keeps no failure
        for images in ((0, 2), (None, -1)):
            with pytest.raises(DimensionMismatch):
                coordinate_map(2, images, scalars.RATIONAL)


def test_coordinate_map_refuses_an_unknown_mode_on_every_call():
    for _ in range(2):  # the cache keeps no failure
        for images in ((0, 1), (None,), ()):
            with pytest.raises(ValueError, match="unknown scalar mode"):
                coordinate_map(2, images, "real")


def test_display_order_and_names():
    # display_order permutes factor printing only; term order stays canonical
    p = Poly.from_terms(2, [((1, 1), 2), ((0, 2), 1)], scalars.RATIONAL)
    s = poly_to_str(p, var_names=["u", "x"], display_order=[1, 0])
    assert s == "2*x*u + x^2"


# ------------------------------------------- oracles outside the canonical form

def maps_between(dom, cod, mode):
    """General maps dom -> cod and, when dom > 0, variable maps (projections,
    permutations and duplications such as <x0, x0>)."""
    general = st.lists(polys_at(dom, mode), min_size=cod, max_size=cod).map(
        lambda comps: PolyMap(dom, cod, tuple(comps), mode)
    )
    if dom == 0:
        return general
    images = st.lists(st.integers(0, dom - 1), min_size=cod, max_size=cod)
    return st.one_of(general, images.map(lambda im: coordinate_map(dom, tuple(im), mode)))


def points(n, mode):
    if mode == scalars.NATURAL:
        return st.lists(st.integers(0, 3), min_size=n, max_size=n)
    scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.lists(scalar, min_size=n, max_size=n)


@st.composite
def composable(draw, mode):
    a, b, c = (draw(st.integers(0, 3), label=name) for name in "abc")
    f = draw(maps_between(a, b, mode), label="f")
    g = draw(maps_between(b, c, mode), label="g")
    return f, g, draw(points(a, mode), label="x")


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compose_agrees_with_evaluation(mode, data):
    """f;g at a point is g of f of the point, for every shape of f and g."""
    f, g, x = data.draw(composable(mode))
    fg = polymap_compose(f, g)
    assert (fg.dom, fg.cod) == (f.dom, g.cod)
    assert eval_polymap(fg, x) == eval_polymap(g, eval_polymap(f, x))
    for comp in fg.components:
        keys = [(sum(ev), ev) for ev, c in comp.terms if c != 0]
        assert len(keys) == len(comp.terms) and keys == sorted(keys, reverse=True)


def test_duplicating_variable_map_adds_colliding_terms():
    # <x0, x0> ; (x0*x1 + x0^2 - x1) = 2*x0^2 - x0
    diag = coordinate_map(1, (0, 0), scalars.RATIONAL)
    g = Poly.from_terms(2, [((1, 1), 1), ((2, 0), 1), ((0, 1), -1)], scalars.RATIONAL)
    fg = polymap_compose(diag, PolyMap(2, 1, (g,), scalars.RATIONAL))
    assert polymap_to_str(fg) == "2*x0^2 - x0"
    # g cancels to 0 under <x0, x0>
    h = Poly.from_terms(2, [((1, 0), 1), ((0, 1), -1)], scalars.RATIONAL)
    assert polymap_compose(diag, PolyMap(2, 1, (h,), scalars.RATIONAL)).components[0].terms == ()


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compose_of_mixed_components_is_componentwise_substitution(mode, data):
    """Whatever mix of bare variables, zeros, constants, scaled variables and
    other polynomials g has, f;g is f substituted into each component (widened
    when g.dom is 0), and a bare variable x_j of g gives back f's component j,
    unless f is the identity, when f;g is g itself."""
    a, b, c = (data.draw(st.integers(0, 3), label=name) for name in "abc")
    f = data.draw(maps_between(a, b, mode), label="f")
    scalar = st.integers(0 if mode == scalars.NATURAL else -3, 3)
    kinds = [st.just(Poly.zero(b, mode)), polys_at(b, mode), scalar.map(lambda v: Poly.constant(b, v, mode))]
    if b:
        var = st.integers(0, b - 1).map(lambda j: Poly.variable(b, j, mode))
        kinds += [var, st.builds(poly_scale, var, scalar)]
    comps = data.draw(st.lists(st.one_of(kinds), min_size=c, max_size=c), label="g")
    g = PolyMap(b, c, tuple(comps), mode)
    fg = polymap_compose(f, g)
    want = (poly_subst(q, f.components) if b else poly_shift_vars(q, 0, a) for q in comps)
    assert fg.components == tuple(want)
    if f == identity_map(a, mode):
        assert fg is g
        return
    for q, out in zip(comps, fg.components):
        if len(q.terms) == 1 and q.terms[0][1] == 1 and sum(q.terms[0][0]) == 1:
            assert out is f.components[q.terms[0][0].index(1)]


def variable_maps(dom, cod, mode):
    """Variable maps dom -> cod whose images increase strictly, decrease strictly or repeat."""
    if dom == 0:
        return st.just(coordinate_map(0, (), mode)) if cod == 0 else st.nothing()
    images = st.lists(st.integers(0, dom - 1), min_size=cod, max_size=cod)
    kinds = [images]
    if cod <= dom:
        distinct = st.permutations(range(dom)).map(lambda im: im[:cod])
        kinds += [distinct.map(sorted), distinct.map(lambda im: sorted(im, reverse=True))]
    if cod >= 2:
        kinds.append(images.map(lambda im: [im[-1], *im[1:]]))  # image im[-1] at least twice
    return st.one_of(kinds).map(lambda im: coordinate_map(dom, tuple(im), mode))


def maps_with_zeros(dom, cod, mode):
    """Maps dom -> cod whose components are zeros, bare variables or general polynomials."""
    kinds = [st.just(Poly.zero(dom, mode)), polys_at(dom, mode)]
    if dom:
        kinds.append(st.integers(0, dom - 1).map(lambda j: Poly.variable(dom, j, mode)))
    comps = st.lists(st.one_of(kinds), min_size=cod, max_size=cod)
    return st.one_of(comps.map(lambda c: PolyMap(dom, cod, tuple(c), mode)), variable_maps(dom, cod, mode))


def reference_compose(f, g):
    """f;g by poly_subst on every component of g; widened by hand when g.dom is 0."""
    comps = (poly_subst(q, f.components) if g.dom else poly_shift_vars(q, 0, f.dom) for q in g.components)
    return PolyMap(f.dom, g.cod, tuple(comps), f.mode)


def assert_well_formed(h):
    """h passes PolyMap's own checks, is canonical, and its cached hash is the generated one."""
    assert PolyMap(h.dom, h.cod, h.components, h.mode) == h
    for comp in h.components:
        assert comp.terms == _canonical(dict(comp.terms))
    assert hash(h) == hash((h.dom, h.cod, h.components, h.mode)) == hash(dataclasses.replace(h))


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compose_fast_paths_equal_componentwise_substitution(mode, data):
    """Selecting, spreading and renaming give what poly_subst gives on every component,
    for variable maps on either side (increasing, decreasing or repeated images),
    zero components, and an empty domain on either side."""
    a, b, c = (data.draw(st.integers(0, 3), label=name) for name in "abc")
    f = data.draw(maps_with_zeros(a, b, mode), label="f")
    g = data.draw(maps_with_zeros(b, c, mode), label="g")
    fg = polymap_compose(f, g)
    assert fg == reference_compose(f, g)
    assert_well_formed(fg)
    assert_well_formed(polymap_pair(f, fg))
    assert polymap_compose(f, g) == fg  # the cached facts of f and g give the same result again


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compose_with_a_variable_map_selects_the_components_of_f(mode, data):
    """f;g for a variable map g other than the identity is f's components at g's images, the same objects."""
    a, b, c = (data.draw(st.integers(0, 3), label=name) for name in "abc")
    f = data.draw(maps_with_zeros(a, b, mode), label="f")
    g = data.draw(variable_maps(b, c, mode), label="g")
    assume(g != identity_map(b, mode))
    images = [comp.terms[0][0].index(1) for comp in g.components]
    fg = polymap_compose(f, g)
    assert fg == PolyMap(a, c, tuple(f.components[j] for j in images), mode)
    assert all(out is f.components[j] for out, j in zip(fg.components, images))
    assert_well_formed(fg)


def shifted_product(f, g):
    """f x g by shifting each component into its block by hand: the reference for polymap_product."""
    dom = f.dom + g.dom
    comps = [poly_shift_vars(c, 0, dom) for c in f.components]
    comps += [poly_shift_vars(c, f.dom, dom) for c in g.components]
    return PolyMap(dom, f.cod + g.cod, tuple(comps), f.mode)


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_product_through_slice_projections_equals_the_shifted_components(mode, data):
    a, b, c, d = (data.draw(st.integers(0, 3), label=name) for name in "abcd")
    f = data.draw(maps_with_zeros(a, b, mode), label="f")
    g = data.draw(maps_with_zeros(c, d, mode), label="g")
    fg = polymap_product(f, g)
    assert fg == shifted_product(f, g)
    assert_well_formed(fg)


def test_product_refuses_mixed_modes():
    with pytest.raises(DimensionMismatch, match="mixed scalar modes"):
        polymap_product(identity_map(1, scalars.RATIONAL), identity_map(1, scalars.NATURAL))


def test_cached_hash_and_var_indices_stay_outside_the_fields():
    f = coordinate_map(3, (2, 0), scalars.RATIONAL)  # a fresh map, no facts yet
    h = hash(f)
    assert f._facts == (h, None) and _var_index_each(f) == (2, 0) and f._facts == (h, (2, 0))
    assert [fld.name for fld in dataclasses.fields(f)] == ["dom", "cod", "components", "mode"]
    copy = dataclasses.replace(f)
    assert not hasattr(copy, "_facts") and copy == f and hash(copy) == h
    assert repr(f) == repr(copy)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.dom = 4
    assert _var_index_each(polymap_pair(f, zero_map(3, 1, scalars.RATIONAL))) == (2, 0, None)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cdc_d_agrees_with_sympy(sympy, mode, data):
    """Each component of D f is sum_j d f_i/d x_j * u_j, with sympy's derivative."""
    m = data.draw(st.integers(1, 3), label="dom")
    f = data.draw(maps_between(m, 2, mode), label="f")
    us, xs = sympy.symbols(f"u0:{m}"), sympy.symbols(f"x0:{m}")

    def expr(p, names):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v ** e for v, e in zip(names, ev)))
             for ev, c in p.terms),
            sympy.Integer(0),
        )

    d = cdc_D(f)
    for comp, dcomp in zip(f.components, d.components):
        fi = expr(comp, xs)
        want = sympy.expand(sum((sympy.diff(fi, x) * u for x, u in zip(xs, us)), sympy.Integer(0)))
        assert sympy.expand(expr(dcomp, us + xs)) == want
        keys = [(sum(ev), ev) for ev, _ in dcomp.terms]
        assert keys == sorted(keys, reverse=True) and all(c != 0 for _, c in dcomp.terms)


# ------------------------------------------------------ exact evaluation

def ref_eval(f, point):
    """Each component summed term by term in Fractions, sharing no code with eval_polymap."""
    out = []
    for comp in f.components:
        total = Fraction(0)
        for ev, c in comp.terms:
            term = Fraction(c)
            for v, e in zip(point, ev):
                term *= Fraction(v) ** e
            total += term
        out.append(total)
    return tuple(out)


@st.composite
def maps_and_points(draw, mode):
    """A map (zero components and dom 0 included) and a point with mixed denominators."""
    dom, cod = draw(st.integers(0, 3), label="dom"), draw(st.integers(0, 3), label="cod")
    if mode == scalars.NATURAL:
        coeff = st.integers(0, 5)
        scalar = st.one_of(st.integers(0, 6), st.builds(Fraction, st.integers(0, 6)))
    else:
        coeff = st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
        scalar = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
    term = st.tuples(st.lists(st.integers(0, 4), min_size=dom, max_size=dom).map(tuple), coeff)
    comp = st.lists(term, max_size=4).map(lambda items: Poly.from_terms(dom, items, mode))
    comps = draw(st.lists(comp, min_size=cod, max_size=cod), label="components")
    point = draw(st.lists(scalar, min_size=dom, max_size=dom), label="x")
    return PolyMap(dom, cod, tuple(comps), mode), point


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eval_polymap_agrees_with_term_by_term_fractions(mode, data):
    f, x = data.draw(maps_and_points(mode))
    got = eval_polymap(f, x)
    assert got == ref_eval(f, x)
    for v in got:
        assert type(v) is (int if v.denominator == 1 else Fraction)


@pytest.mark.parametrize("mode", scalars.MODES)
def test_eval_polymap_refusals(mode):
    f = PolyMap(2, 2, (Poly.variable(2, 1, mode), Poly.zero(2, mode)), mode)
    assert eval_polymap(f, [Fraction(4, 2), 3]) == (3, 0)
    with pytest.raises(DimensionMismatch):
        eval_polymap(f, [1])
    with pytest.raises(DimensionMismatch):
        eval_polymap(f, [1, 2, 3])
    with pytest.raises(TypeError):
        eval_polymap(f, [1, 2.0])
    if mode == scalars.NATURAL:
        for point in ([-1, 0], [0, Fraction(1, 2)]):
            with pytest.raises(SemiringViolation):
                eval_polymap(f, point)
    else:
        assert eval_polymap(f, [-1, Fraction(-1, 2)]) == (Fraction(-1, 2), 0)


# ------------------------------------------------- Poly and PolyMap values

def test_poly_and_polymap_are_frozen_values():
    p = Poly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 0), 3)], scalars.RATIONAL)
    f = PolyMap(2, 1, (p,), scalars.RATIONAL)
    for obj in (p, f):
        for field in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, getattr(obj, field.name))
    assert not hasattr(p, "__dict__")
    q = Poly(2, (((1, 0), Fraction(1, 2)), ((0, 0), 3)), scalars.RATIONAL)
    g = PolyMap(2, 1, (q,), scalars.RATIONAL)
    assert q is not p and q == p and hash(q) == hash(p)
    assert g is not f and g == f and hash(g) == hash(f)
    assert Poly(2, q.terms[1:], scalars.RATIONAL) != p
    assert PolyMap(2, 1, (Poly.zero(2, scalars.RATIONAL),), scalars.RATIONAL) != f
    assert repr(p) == "Poly(nvars=2, terms=(((1, 0), Fraction(1, 2)), ((0, 0), 3)), mode='rational')"
    assert repr(f) == f"PolyMap(dom=2, cod=1, components=({p!r},), mode='rational')"


def test_polymap_refuses_components_that_do_not_fit():
    p = Poly.variable(2, 0, scalars.RATIONAL)
    with pytest.raises(DimensionMismatch):
        PolyMap(2, 2, (p,), scalars.RATIONAL)
    with pytest.raises(DimensionMismatch):
        PolyMap(3, 1, (p,), scalars.RATIONAL)
    with pytest.raises(DimensionMismatch):
        PolyMap(2, 1, (p,), scalars.NATURAL)
    with pytest.raises(ValueError):
        PolyMap(2, 0, (), "integer")


# ------------------------------------- the order invariants the fast paths use

def scalars_in(mode):
    """Coefficients of either type: ints, and Fractions (integral ones included) in rational mode."""
    if mode == scalars.NATURAL:
        return st.one_of(st.integers(0, 5), st.builds(Fraction, st.integers(0, 5)))
    return st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


def dense_polys_at(nvars, mode):
    term = st.tuples(st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars).map(tuple), scalars_in(mode))
    return st.lists(term, max_size=8).map(lambda items: Poly.from_terms(nvars, items, mode))


def sparse_polys_at(nvars, mode):
    """Up to 8 terms, each with at most 3 of the nvars variables."""
    unit = st.tuples(st.integers(0, nvars - 1), st.integers(1, 4))

    def exponents(pairs):
        ev = [0] * nvars
        for i, e in pairs:
            ev[i] = e
        return tuple(ev)

    term = st.tuples(st.lists(unit, max_size=3).map(exponents), scalars_in(mode))
    return st.lists(term, max_size=8).map(lambda items: Poly.from_terms(nvars, items, mode))


def assert_canonical_types(p):
    for _, c in p.terms:
        assert type(c) is (int if c.denominator == 1 else Fraction)


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cdc_D_terms_are_already_canonical(mode, data):
    """D f needs no dictionary and no sort: its terms are their own canonical form,
    and equal the D that added every u_j * d/dx_j term into one dict and sorted it."""
    m, n = data.draw(st.integers(0, params.MAX_DIM), label="dom"), data.draw(st.integers(0, 2), label="cod")
    polys = dense_polys_at(m, mode) if m <= 3 else sparse_polys_at(m, mode)  # cdc_D walks each run m times
    comps = data.draw(st.lists(polys, min_size=n, max_size=n), label="f")
    f = PolyMap(m, n, tuple(comps), mode)
    units = [(0,) * j + (1,) + (0,) * (m - j - 1) for j in range(m)]
    for comp, dcomp in zip(f.components, cdc_D(f).components):
        assert dcomp.terms == _canonical(dict(dcomp.terms))
        assert len(dict(dcomp.terms)) == len(dcomp.terms)
        summed = {units[j] + ev: c for j in range(m) for ev, c in partial_derivative(comp, j).terms}
        assert dcomp.terms == _canonical(summed)
        assert_canonical_types(dcomp)


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_subst_into_a_scaled_variable_is_the_scaled_argument(mode, data):
    """poly_subst of c * x_i (+ c0) returns args[i] scaled term by term (c0 added into its constant
    term, or appended), with nothing re-added or re-sorted."""
    b, a = data.draw(st.integers(1, 3), label="vars"), data.draw(st.integers(0, 3), label="width")
    args = data.draw(st.lists(dense_polys_at(a, mode), min_size=b, max_size=b), label="args")
    i = data.draw(st.integers(0, b - 1), label="i")
    c = scalars.coerce(mode, data.draw(scalars_in(mode).filter(bool), label="c"))
    c0 = scalars.coerce(mode, data.draw(scalars_in(mode), label="c0"))
    ev = tuple(int(k == i) for k in range(b))
    got = poly_subst(Poly.from_terms(b, [(ev, c), ((0,) * b, c0)], mode), args)
    assert got == Poly.from_terms(a, [(ev2, c * c2) for ev2, c2 in args[i].terms] + [((0,) * a, c0)], mode)
    assert_canonical_types(got)


@pytest.mark.parametrize("mode", scalars.MODES)
def test_subst_into_an_affine_variable_agrees_with_the_general_path(mode):
    """c * x_0 + c0 against c * x_0 * x_1 + c0 with x_1 := 1, which takes poly_subst's general path:
    a c0 that cancels the argument's constant term, an argument with no constant term, a zero argument."""
    neg = -1 if mode == scalars.RATIONAL else 1
    half = Fraction(1, 2) if mode == scalars.RATIONAL else 2
    one = Poly.constant(2, 1, mode)
    cases = [
        (Poly.from_terms(2, [((1, 1), 3), ((0, 1), 1), ((0, 0), 2)], mode), half, neg * 1),
        (Poly.from_terms(2, [((1, 1), 3), ((0, 1), 1), ((0, 0), 2)], mode), 2, 5),
        (Poly.from_terms(2, [((2, 0), 3), ((0, 1), half)], mode), half, 3),
        (Poly.from_terms(2, [((1, 0), 1), ((0, 0), 1)], mode), 2, neg * 2),
        (Poly.zero(2, mode), 3, half),
    ]
    for arg, c, c0 in cases:
        affine = Poly.from_terms(1, [((1,), c), ((0,), c0)], mode)
        general = Poly.from_terms(2, [((1, 1), c), ((0, 0), c0)], mode)
        got = poly_subst(affine, [arg])
        assert got == poly_subst(general, [arg, one])
        assert_canonical_types(got)
    if mode == scalars.RATIONAL:  # the sum is 0: the constant term is dropped, not kept as 0
        arg = Poly.from_terms(2, [((1, 0), 1), ((0, 0), Fraction(1, 3))], mode)
        assert poly_subst(Poly.from_terms(1, [((1,), 3), ((0,), -1)], mode), [arg]).terms == (((1, 0), 3),)
        got = poly_subst(Poly.from_terms(1, [((1,), Fraction(3, 2)), ((0,), Fraction(1, 2))], mode), [arg])
        assert got.terms == (((1, 0), Fraction(3, 2)), ((0, 0), 1))  # 1/2 + 1/2 is the int 1
        assert_canonical_types(got)


def ref_poly_to_str(p, var_names=None, display_order=None):
    """The printer as it was before it formatted each power once: a reference kept here."""
    if var_names is None:
        var_names = [f"x{i}" for i in range(p.nvars)]
    order = list(display_order) if display_order is not None else list(range(p.nvars))
    if not p.terms:
        return "0"
    pieces = []
    for ev, c in p.terms:
        factors = []
        for i in order:
            e = ev[i]
            if e == 1:
                factors.append(var_names[i])
            elif e > 1:
                factors.append(f"{var_names[i]}^{e}")
        mag = abs(c)
        mag = f"{mag.numerator}/{mag.denominator}" if mag.denominator != 1 else str(mag.numerator)
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        pieces.append((c < 0, body))
    first_neg, first_body = pieces[0]
    out = ("-" + first_body) if first_neg else first_body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_poly_to_str_matches_the_reference_printer(mode, data):
    n = data.draw(st.integers(0, 4), label="vars")
    p = data.draw(st.one_of(st.just(Poly.zero(n, mode)), dense_polys_at(n, mode)), label="p")
    lead = data.draw(st.none() | scalars_in(mode).filter(bool), label="leading coefficient")
    if lead is not None:  # a leading term above every drawn one: negative and fractional ones included
        p = poly_add(p, Poly.from_terms(n, [((5,) * n, lead)], mode))
    names = st.lists(st.text("uvxyzαβ_0123456789'", min_size=1, max_size=3), min_size=n, max_size=n)
    var_names = data.draw(st.none() | names, label="var_names")
    display_order = data.draw(st.none() | st.permutations(range(n)), label="display_order")
    assert poly_to_str(p, var_names, display_order) == ref_poly_to_str(p, var_names, display_order)
    assert polymap_to_str(PolyMap(n, 2, (p, p), mode), var_names, display_order) == "; ".join(
        [ref_poly_to_str(p, var_names, display_order)] * 2
    )


@pytest.mark.parametrize("mode", scalars.MODES)
def test_compose_after_the_identity_is_the_map_itself(mode):
    rng = Random(5)
    for n in range(4):
        g = random_polymap(n, 2, 3, rng, mode)
        assert polymap_compose(identity_map(n, mode), g) is g
        # an identity built afresh, as mu of a canonical differential object is
        fresh = PolyMap(n, n, tuple(Poly.from_terms(n, [(ev, 1)], mode) for ev, _ in
                                    (c.terms[0] for c in identity_map(n, mode).components)), mode)
        assert fresh is not identity_map(n, mode)
        assert polymap_compose(fresh, g) is g


def linear_polys_at(nvars, mode):
    """c_1 * x_1 + ... + c_n * x_n + c0, each c nonzero or absent: the zero polynomial and a constant
    alone included."""
    coeffs = st.lists(st.one_of(st.none(), scalars_in(mode)), min_size=nvars + 1, max_size=nvars + 1)

    def build(cs):
        units = [tuple(int(k == i) for k in range(nvars)) for i in range(nvars)]
        items = [(unit, c) for unit, c in zip(units, cs) if c is not None]
        return Poly.from_terms(nvars, items + ([((0,) * nvars, cs[-1])] if cs[-1] is not None else []), mode)

    return coeffs.map(build)


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_subst_into_a_linear_polynomial_agrees_with_the_general_path(mode, data):
    """A linear p against p * x_b with x_b := 1, which is of degree 2 and takes the general path."""
    b, a = data.draw(st.integers(1, 4), label="vars"), data.draw(st.integers(0, 3), label="width")
    p = data.draw(linear_polys_at(b, mode), label="p")
    args = data.draw(st.lists(dense_polys_at(a, mode), min_size=b, max_size=b), label="args")
    general = Poly.from_terms(b + 1, [(ev + (1,), c) for ev, c in p.terms], mode)
    got = poly_subst(p, args)
    assert got == poly_subst(general, args + [Poly.constant(a, 1, mode)])
    assert got.terms == _canonical(dict(got.terms))
    assert_canonical_types(got)


@pytest.mark.parametrize("mode", scalars.MODES)
def test_subst_into_the_zero_polynomial_and_a_constant(mode):
    half = Fraction(1, 2) if mode == scalars.RATIONAL else 2
    args = [Poly.from_terms(2, [((1, 0), half), ((0, 0), 1)], mode)] * 3
    assert poly_subst(Poly.zero(3, mode), args) == Poly.zero(2, mode)
    assert poly_subst(Poly.constant(3, half, mode), args) == Poly.constant(2, half, mode)
    assert poly_subst(Poly.constant(0, half, mode), []) == Poly.constant(0, half, mode)


@pytest.mark.parametrize("mode", scalars.MODES)
def test_cdc_D_of_a_wide_sparse_map_costs_its_terms_and_matches_the_partials_oracle(mode):
    """Term for term against ref_partial over 4,000 variables, most of them in no component.  A unit
    tuple for every variable would allocate 8 * m * m bytes (128 MB); cdc_D stays under m * m."""
    m, rng = 4000, Random(27)
    coeff = (lambda: Fraction(rng.randint(1, 9), rng.randint(1, 4))) if mode == scalars.RATIONAL else (
        lambda: rng.randint(1, 9))
    comps = []
    for _ in range(3):
        items = []
        for _ in range(rng.randint(0, 6)):
            ev = [0] * m
            for _ in range(rng.randint(0, 3)):
                ev[rng.randrange(m)] += rng.randint(1, 3)
            items.append((tuple(ev), coeff()))
        comps.append(Poly.from_terms(m, items, mode))
    f = PolyMap(m, 3, tuple(comps), mode)
    tracemalloc.start()
    try:
        df = cdc_D.__wrapped__(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m
    for comp, dcomp in zip(f.components, df.components):
        oracle = {}
        for j in sorted({j for ev, _ in comp.terms for j, e in enumerate(ev) if e}):
            unit = (0,) * j + (1,) + (0,) * (m - j - 1)
            oracle.update({unit + ev: c for ev, c in ref_partial(ref_terms(comp), j).items()})
        assert len(dict(dcomp.terms)) == len(dcomp.terms)
        assert dict(dcomp.terms) == oracle
        assert dcomp.terms == _canonical(oracle)
        assert_canonical_types(dcomp)
