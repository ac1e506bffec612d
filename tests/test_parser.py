"""Expression grammar: frozen readings, roundtrips, and rejection positions."""

import subprocess
import sys
from contextlib import contextmanager
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tancat import parser, poly, scalars
from tancat.errors import PolyParseError, SemiringViolation
from tancat.parser import (
    MAX_COEFF_BITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    MAX_VARIABLES,
    parse_poly,
    parse_polymap,
)
from tancat.poly import (
    Poly,
    poly_add,
    poly_mul,
    poly_scale,
    polymap_to_str,
    poly_to_str,
    random_polymap,
)


def test_reads_two_variable_polynomial():
    p = parse_poly("x0^2*x1 + 3", 2, scalars.RATIONAL)
    assert p == Poly.from_terms(2, [((2, 1), 1), ((0, 0), 3)], scalars.RATIONAL)


def test_reads_multi_component_map():
    f = parse_polymap("x0; x0 + x1", 2, scalars.RATIONAL)
    assert f.dom == 2 and f.cod == 2
    assert polymap_to_str(f) == "x0; x0 + x1"


def test_natural_mode_rejects_minus():
    with pytest.raises(SemiringViolation):
        parse_poly("-x0", 1, scalars.NATURAL)
    with pytest.raises(SemiringViolation):
        parse_poly("x0 - 1", 1, scalars.NATURAL)
    with pytest.raises(SemiringViolation):
        parse_poly("1/2", 1, scalars.NATURAL)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x0 - 1", "'-' is not available in natural mode (at position 3)"),
        ("2/3*x0", "rational literal in natural mode (at position 0)"),
    ],
)
def test_natural_mode_refusals_are_worded_like_parse_errors(text, message):
    with pytest.raises(SemiringViolation) as err:
        parse_poly(text, 1, scalars.NATURAL)
    assert str(err.value) == message


def test_rational_mode_subtraction_and_fractions():
    p = parse_poly("x0 - 1", 1, scalars.RATIONAL)
    assert poly_to_str(p) == "x0 - 1"
    q = parse_poly("1/2 * x0^2", 1, scalars.RATIONAL)
    assert poly_to_str(q) == "1/2*x0^2"


def test_roundtrip_through_printer():
    rng = Random(17)
    for mode in scalars.MODES:
        for _ in range(25):
            dom = rng.randint(1, 3)
            cod = rng.randint(1, 3)
            f = random_polymap(dom, cod, 3, rng, mode)
            assert parse_polymap(polymap_to_str(f), dom, mode) == f


def test_error_positions_are_character_accurate():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x0 + %", 1, scalars.RATIONAL)
    assert e.value.pos == 5
    with pytest.raises(PolyParseError) as e:
        parse_poly("x0 ^ x1", 2, scalars.RATIONAL)
    assert e.value.pos == 5
    with pytest.raises(PolyParseError) as e:
        parse_poly("x0 +", 1, scalars.RATIONAL)
    assert "end of input" in str(e.value)


def test_variable_index_bound():
    with pytest.raises(PolyParseError):
        parse_poly("x5", 2, scalars.RATIONAL)
    parse_poly("x1", 2, scalars.RATIONAL)  # in range is fine


def test_zero_denominator_rejected():
    with pytest.raises(PolyParseError):
        parse_poly("1/0", 1, scalars.RATIONAL)


def test_parse_poly_rejects_component_separator():
    with pytest.raises(PolyParseError):
        parse_poly("x0; x0", 1, scalars.RATIONAL)


def test_parentheses_and_powers():
    p = parse_poly("(x0 + 1)^2", 1, scalars.RATIONAL)
    assert poly_to_str(p) == "x0^2 + 2*x0 + 1"
    q = parse_poly("2*(x0 + x1)*(x0)", 2, scalars.RATIONAL)
    assert poly_to_str(q) == "2*x0^2 + 2*x0*x1"


def test_long_sums_and_products_fold_without_recursion():
    p = parse_poly("+".join(["x0"] * 3000), 1, scalars.RATIONAL)
    assert poly_to_str(p) == "3000*x0"
    q = parse_poly("*".join(["x0"] * 3000), 1, scalars.RATIONAL)
    assert poly_to_str(q) == "x0^3000"


def test_nesting_is_capped():
    depth = MAX_NESTING
    assert parse_poly("(" * depth + "x0" + ")" * depth, 1, scalars.RATIONAL) == parse_poly("x0", 1)
    assert poly_to_str(parse_poly("-" * depth + "x0", 1, scalars.RATIONAL)) == "x0"
    with pytest.raises(PolyParseError) as e:
        parse_poly("(" * (depth + 1) + "x0" + ")" * (depth + 1), 1, scalars.RATIONAL)
    assert e.value.pos == depth
    with pytest.raises(PolyParseError) as e:
        parse_poly("-(" * depth + "x0" + ")" * depth, 1, scalars.RATIONAL)
    assert e.value.pos == depth


def test_literal_exponent_is_capped():
    assert poly_to_str(parse_poly(f"x0^{MAX_EXPONENT}", 1, scalars.RATIONAL)) == "x0^1000"
    with pytest.raises(PolyParseError) as e:
        parse_poly(f"x0^{MAX_EXPONENT + 1}", 1, scalars.RATIONAL)
    assert e.value.pos == 3


def test_variable_index_is_capped_at_the_token():
    last = f"x{MAX_VARIABLES - 1}"
    assert poly_to_str(parse_poly(last, MAX_VARIABLES, scalars.RATIONAL)) == last
    with pytest.raises(PolyParseError) as e:
        parse_polymap(f"x0; 1 + x{MAX_VARIABLES}", MAX_VARIABLES + 1, scalars.RATIONAL)
    assert e.value.pos == 8 and f"bound of {MAX_VARIABLES} variables" in str(e.value)


def test_term_budget_refuses_large_products_and_powers_at_the_operator():
    assert MAX_TERMS == 10_000
    # C(302, 2) = 45,451 terms; '^' is at position 9
    with pytest.raises(PolyParseError) as e:
        parse_poly("(x0+x1+1)^300", 2, scalars.RATIONAL)
    assert e.value.pos == 9 and "10000 terms" in str(e.value)
    # 1,820 * 1,820 term pairs and C(28, 4) = 20,475 monomials of degree <= 24
    power = "(x0+x1+x2+x3+1)^12"
    with pytest.raises(PolyParseError) as e:
        parse_poly(f"{power}*{power}", 4, scalars.NATURAL)
    assert e.value.pos == len(power)
    # 210 * 210 pairs, but only C(16, 4) = 1,820 monomials of degree <= 12
    power = "(x0+x1+x2+x3+1)^6"
    assert len(parse_poly(f"{power}*{power}", 4, scalars.NATURAL).terms) == 1820


def test_term_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(parser, "MAX_TERMS", 10)
    assert len(parse_poly("(x0+1)^9", 1, scalars.RATIONAL).terms) == 10
    # three powers of bound 1, then 12 pairs but only 6 monomials of degree <= 5: 9 in all
    assert len(parse_poly("(x0+x0^2+x0^3+1)*(x0+x0^2+1)", 1, scalars.RATIONAL).terms) == 6
    with pytest.raises(PolyParseError) as e:
        parse_poly("(x0+1)^10", 1, scalars.RATIONAL)
    assert e.value.pos == 6
    # two products of bound 1, then 24 pairs and C(6, 3) = 20 monomials of degree <= 3
    with pytest.raises(PolyParseError) as e:
        parse_poly("(x0+x1+x2+1) * (x0*x1+x1*x2+x0+x1+x2+1)", 3, scalars.RATIONAL)
    assert e.value.pos == 13


def test_term_budget_is_summed_over_the_whole_text(monkeypatch):
    # (x0+x1+1)^139 has C(141, 139) = 9,870 terms: one fits, the second '^' passes 10,000
    power = "(x0+x1+1)^139"
    assert len(parse_poly(power, 2, scalars.RATIONAL).terms) == 9870
    with pytest.raises(PolyParseError) as e:
        parse_poly(f"{power}+{power}", 2, scalars.RATIONAL)
    assert e.value.pos == len(power) + 1 + 9 and "more than 10000 terms" in str(e.value)
    with pytest.raises(PolyParseError) as e:
        parse_polymap(f"{power}; {power}", 2, scalars.RATIONAL)
    assert e.value.pos == len(power) + 2 + 9
    monkeypatch.setattr(parser, "MAX_TERMS", 10)
    # 5 + 5 terms, then the product's 9 monomials make 19
    with pytest.raises(PolyParseError) as e:
        parse_poly("(x0+1)^4*(x0+1)^4", 1, scalars.RATIONAL)
    assert e.value.pos == 8
    # 6 + 6 terms: the second power passes 10 before the product is bounded
    with pytest.raises(PolyParseError) as e:
        parse_poly("(x0+x1+x2)^2 * (x0+x1+x2)^2", 3, scalars.RATIONAL)
    assert e.value.pos == 25


def test_coefficient_bound_refuses_at_the_operator(monkeypatch):
    assert MAX_COEFF_BITS == 10_000
    # 99^1000 has 6,630 bits; its 1000th power would have 6.6 million
    assert parse_poly("(99)^1000", 1, scalars.RATIONAL).terms[0][1] == 99**1000
    with pytest.raises(PolyParseError) as e:
        parse_poly("((99)^1000)^1000", 1, scalars.RATIONAL)
    assert e.value.pos == 11 and "more than 10000 bits" in str(e.value)
    monkeypatch.setattr(parser, "MAX_COEFF_BITS", 10)
    # 3^6 = 729 fits in 10 bits, 3^7 = 2,187 and 40*40 = 1,600 do not
    assert parse_poly("3^6", 1, scalars.NATURAL).terms[0][1] == 729
    for text, pos in (("3^7", 1), ("40*40", 2), ("x0 + 1000 + 1000", 10)):
        with pytest.raises(PolyParseError) as e:
            parse_poly(text, 1, scalars.NATURAL)
        assert e.value.pos == pos
    # the common denominator of 1/31 and 1/33 is 1,023, of 1/31 and 1/37 1,147
    assert parse_poly("1/31 + 1/33", 1, scalars.RATIONAL).terms[0][1].denominator == 1023
    with pytest.raises(PolyParseError) as e:
        parse_poly("1/31 - 1/37", 1, scalars.RATIONAL)
    assert e.value.pos == 5
    # a long sum over one denominator keeps it
    assert len(parse_poly(" + ".join(["1/2*x0"] * 500), 1, scalars.RATIONAL).terms) == 1


def test_long_literals_are_refused_by_their_digit_count():
    most = parser._LITERAL_DIGITS
    assert parse_poly("9" * most, 1, scalars.RATIONAL).terms[0][1].bit_length() <= MAX_COEFF_BITS
    for text, pos in (("9" * (most + 1), 0), ("1/" + "7" * (most + 1), 2)):
        with pytest.raises(PolyParseError) as e:
            parse_poly(text, 1, scalars.RATIONAL)
        assert e.value.pos == pos and f"more than {most} digits" in str(e.value)
    # leading zeros do not count, in indices and exponents too
    zeros = "0" * 5000
    assert poly_to_str(parse_poly(f"x{zeros}1^{zeros}2 + {zeros}3", 2, scalars.RATIONAL)) == "x1^2 + 3"


def test_syntax_is_checked_before_any_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("multiplied before the whole text parsed")

    monkeypatch.setattr(parser, "poly_product", refuse)
    monkeypatch.setattr(poly, "poly_product", refuse)
    with pytest.raises(PolyParseError) as e:
        parse_poly("(x0+1)^2 )", 1, scalars.RATIONAL)
    assert e.value.pos == 9
    with pytest.raises(PolyParseError) as e:
        parse_polymap("(x0+1)^2; x0 )", 1, scalars.RATIONAL)
    assert e.value.pos == 13


def test_over_budget_text_is_refused_before_any_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("multiplied before the term budget was checked")

    monkeypatch.setattr(parser, "poly_product", refuse)
    monkeypatch.setattr(poly, "poly_product", refuse)
    power = "(x0+x1+1)^139"
    with pytest.raises(PolyParseError) as e:
        parse_poly(f"{power}+{power}", 2, scalars.RATIONAL)
    assert e.value.pos == len(power) + 1 + 9 and "summed over the text" in str(e.value)


# The fold keeps products as factor lists; these tests hold it to op-by-op evaluation.

def op_by_op(text, dom, mode, seen=None):
    """Each component of text evaluated one op at a time, '^e' as e products into 1.

    If seen is given, seen["term_products"] adds |a|*|b| for every product a*b.
    """
    seen = {"term_products": 0} if seen is None else seen

    def mul(a, b):
        seen["term_products"] += len(a.terms) * len(b.terms)
        return poly_mul(a, b)

    stack = []
    for op in parser._Parser(text, dom, mode).parse_text():
        tag = op[0]
        if tag == "c":
            stack.append(Poly.constant(dom, op[1], mode))
        elif tag == "x":
            stack.append(Poly.variable(dom, op[1], mode))
        elif tag == "neg":
            stack.append(poly_scale(stack.pop(), -1))
        elif tag == "^":
            base, stack[-1] = stack[-1], Poly.constant(dom, 1, mode)
            for _ in range(op[1]):
                stack[-1] = mul(stack[-1], base)
        else:
            b = stack.pop()
            stack[-1] = (poly_add if tag == "+" else mul)(stack[-1], b)
    return stack


def op_by_op_multiplications(text, dom, mode):
    """The polynomial products op-by-op evaluation does: one per '*', e per '^e'."""
    ops = parser._Parser(text, dom, mode).parse_text()
    return sum(1 if op[0] == "*" else op[1] if op[0] == "^" else 0 for op in ops)


@contextmanager
def counting_products(term_products=False):
    """While open, counts the products the fold asks of its multiply entry point, and its most pairs.

    With term_products, also counts |acc|*|f| for each step acc*f, replayed one factor at a time.
    """
    seen = {"products": 0, "pairs": 0, "term_products": 0}
    product = parser.poly_product

    def counted(factors):
        # every count the fold passes is at least 1, and the first power of the first base is no product
        seen["products"] += sum(count for _, count in factors) - 1
        seen["pairs"] = max(seen["pairs"], len(factors))
        if term_products:
            (acc, count), *rest = factors
            for f, count in [(acc, count - 1), *rest]:
                for _ in range(count):
                    seen["term_products"] += len(acc.terms) * len(f.terms)
                    acc = poly_mul(acc, f)
        return product(factors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "poly_product", counted)
        yield seen


def expressions(dom, mode):
    atoms = st.one_of(
        st.integers(0, dom - 1).map(lambda i: f"x{i}"),
        st.integers(0, 4).map(str),
        st.sampled_from(["1/2", "3/4"] if mode == scalars.RATIONAL else ["2"]),
    )

    def grow(inner):
        made = [
            st.tuples(inner, inner).map(lambda ab: f"({ab[0]} + {ab[1]})"),
            st.tuples(inner, inner).map(lambda ab: f"{ab[0]}*{ab[1]}"),
            st.tuples(inner, st.integers(0, 3)).map(lambda ae: f"({ae[0]})^{ae[1]}"),
            st.tuples(inner, st.integers(0, 2), st.integers(0, 2)).map(lambda t: f"(({t[0]})^{t[1]})^{t[2]}"),
        ]
        if mode == scalars.RATIONAL:
            made.append(inner.map(lambda a: f"-({a})"))
        return st.one_of(made)

    return st.recursive(atoms, grow, max_leaves=8)


@pytest.mark.parametrize("mode", scalars.MODES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fold_equals_op_by_op_evaluation(mode, data):
    dom = data.draw(st.integers(1, 3), label="dom")
    texts = data.draw(st.lists(expressions(dom, mode), min_size=1, max_size=2), label="components")
    text = "; ".join(texts)
    with counting_products() as seen:
        try:
            folded = parse_polymap(text, dom, mode)
        except PolyParseError as e:
            assume("summed over the text" not in str(e) and "bits" not in str(e))
            raise
    assert folded.components == tuple(op_by_op(text, dom, mode))
    assert seen["products"] <= op_by_op_multiplications(text, dom, mode)


@pytest.mark.parametrize("mode", scalars.MODES)
def test_fold_multiplies_a_dense_factor_by_sparse_ones(mode):
    """The product of powers is multiplied in text order, one factor at a time.

    Neither its products nor its term products pass op-by-op evaluation's: sparse factors
    ahead of a dense one are multiplied while the product is still small.
    """
    p = "(x0^2 + x1^2 + x2^2 + x0*x1 + x1*x2 + 1)"
    for text, dom in (
        ("(x0+x1+2)^6*x0*(x1+3)", 2),
        ("x1*(x0+1)^0*((x0+x1+x2+1)^2)^3*(x2+1)^1*(x0+x1+x2+x3+1)^4", 4),
        ("(x0+x1+x2+x3+1)^6*(2*x0+x1+x2+x3+3)^6", 4),
        ("3*x0^2*x1 + (x0 + 1)*(x1 + 1)^2*(x0 + x1)", 2),
        (f"x0*x1*{p}", 3),  # 1 + 6 term products, not 6 + 6 from the densest factor
        (f"(x0 + 1)*(x1 + 2)*{p}", 3),  # 4 + 4*6, not 2*6 + 4*12
        ("3*x0*(x0 + x1 + x2 + 1)^3", 3),
    ):
        by_op = {"term_products": 0}
        expected = op_by_op(text, dom, mode, by_op)[0]
        with counting_products(term_products=True) as seen:
            assert parse_poly(text, dom, mode) == expected
        assert seen["products"] <= op_by_op_multiplications(text, dom, mode)
        assert seen["term_products"] <= by_op["term_products"], text


def test_the_fold_builds_affine_powers_by_miller(monkeypatch):
    """Every '^e' with e >= 2 of an affine base with a constant term is built by Miller's recurrence,
    when it is the first non-constant power of its product, and the fold's results still equal
    op-by-op evaluation's.  A constant factor, first or not, is folded into one scalar."""
    calls = []
    real = poly._affine_power

    def spy(l0, linear, e):
        calls.append(e)
        return real(l0, linear, e)

    for mode in scalars.MODES:
        for text, expected in (
            ("(x0 + x1 + 1)^5", [5]),
            ("(x0 + 2)^2*(x1 + 1)^3; (x0 + x1 + 3)^20", [2, 20]),
            ("((x0 + 1)^2)^3", [2]),  # (x0 + 1)^2 is not affine
            ("(x0 + 1)^1 + (x0 + x1)^4 + x0*x1", []),
            ("3*(x0 + x1 + 2)^20", [20]),
            ("2*(x0 + 1)^3*3*(x1 + 1)^2", [3]),
            ("(x0 + 1)^4*5", [4]),
            ("(x0 + 1)*(x1 + 2)^3", []),  # (x0 + 1) to the first power is the factor itself
        ):
            want = tuple(op_by_op(text, 2, mode))
            with monkeypatch.context() as patch:
                patch.setattr(poly, "_affine_power", spy)
                calls.clear()
                assert parse_polymap(text, 2, mode).components == want
            assert calls == expected, text


def test_a_sparse_base_of_high_degree_is_powered_one_factor_at_a_time():
    """Miller's recurrence is taken for affine bases only: over every degree up to e * deg L it would
    not finish (x0^1000 + 1)^1000 in a minute, which one factor per step parses well within the budget."""
    proc = subprocess.run(
        [sys.executable, "-m", "tancat.cli", "diff", "--expr", "(x0^1000+1)^1000"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(parse_poly("(x0+1)^1000", 1, scalars.NATURAL).terms) == 1001


def test_hostile_powers_and_chains_do_no_more_products_than_op_by_op():
    # each '^' multiplies its power out first: 999 + 1,000 + 999 products, never a power of 10**9 steps
    text = "((x0^1000)^1000)^1000"
    with counting_products() as seen:
        assert parse_poly(text, 1, scalars.RATIONAL) == Poly.from_terms(1, [((10**9,), 1)], scalars.RATIONAL)
    assert seen["products"] <= op_by_op_multiplications(text, 1, scalars.RATIONAL) == 3000
    # k powers of 1 term and k - 1 products of 1 term spend 2k - 1 of the budget: 5,000 fit, 5,001 do not
    for k in (MAX_TERMS // 2, MAX_TERMS // 2 + 1):
        text = "*".join(["x0^1000"] * k)
        with counting_products() as seen:
            if k > MAX_TERMS // 2:
                with pytest.raises(PolyParseError, match="summed over the text"):
                    parse_poly(text, 1, scalars.NATURAL)
                assert seen["products"] == 0
                continue
            assert parse_poly(text, 1, scalars.NATURAL).terms == (((1000 * k,), 1),)
        assert seen["products"] <= op_by_op_multiplications(text, 1, scalars.NATURAL) == 1001 * k - 1
        assert seen["pairs"] <= k  # one (base, count) pair per power, not one factor per unit of exponent
