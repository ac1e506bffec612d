"""Parser for the polynomial-map expression grammar.

One component per ';'-separated field.  Within a component:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := INT ('/' INT)? | VAR | '(' expr ')'

Variables are ``x0 .. x{dom-1}``, with indices below ``MAX_VARIABLES``;
'^' takes an integer literal from 0 to ``MAX_EXPONENT``; 'a/b' is a
rational literal.  '-' (unary or binary) is only legal in rational mode;
natural mode reports it as a semiring violation.  Whitespace is
insignificant.  Parentheses are accepted on input; the canonical printer
never emits them.

Parsing checks the whole text first, writing it as one flat postfix list of
ops: ``("c", Fraction)``, ``("x", i)``, ``("neg",)``, ``("^", e, pos)``,
``("+", pos)`` and ``("*", pos)``, where ``pos`` is the operator's position;
binary minus is ``neg`` then ``+``.  Only then does one loop fold the list,
left to right, each component leaving one Poly, so every syntax error is
reported before any arithmetic is done.  So is an over-budget text: one pass
bounds the size of every product and power from bounds on its operands, and
adds each bound to one running sum over the text, refusing the operator at
which that sum could pass ``MAX_TERMS`` terms.  The same pass bounds the bits
of every coefficient, refusing the operator at which they could pass
``MAX_COEFF_BITS``.  A literal index, exponent or coefficient is measured by
its digit count before ``int()`` reads it.

The fold keeps each product or power as its (base, count) factors, and
passes the list as it is to ``poly.poly_product`` where a sum, a negation or
the end of the text needs the terms; a negation is then ``poly_scale(p, -1)``.
``poly_product`` multiplies the factors in text order, building the first
power by Miller's recurrence when its base is affine with a nonzero constant
term, and by one multiplication per unit of exponent otherwise.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, Optional, Tuple

from . import scalars
from .errors import PolyParseError, SemiringViolation
from .poly import Poly, PolyMap, poly_add, poly_product, poly_scale

# Parentheses and unary minus nest by recursion; deeper input is refused.
MAX_NESTING = 100
# '^' of an affine base with a constant term is built by Miller's recurrence, of
# any other base by one multiplication per unit of exponent; a larger literal
# exponent is refused.
MAX_EXPONENT = 1000
# Products and powers whose results could have more terms than this in all,
# summed over one text, are refused.
MAX_TERMS = 10_000
# A domain has at most this many variables, x0 .. x999: a larger index, and a
# wider domain named on the command line or in a bundle file, are refused.
MAX_VARIABLES = 1000
# Sums, products and powers whose coefficients could need more bits than this,
# in numerator or common denominator, are refused.  A coefficient then prints
# in at most 3,011 digits, under CPython's 4,300-digit int-to-str limit, and
# so does its derivative's.
MAX_COEFF_BITS = 10_000
# A literal of this many digits is below 2**MAX_COEFF_BITS; a longer one is refused.
_LITERAL_DIGITS = int(MAX_COEFF_BITS * math.log10(2))

_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|([+\-*^/();])|(\S))")


def bounded_int(digits: str, bound: int) -> Optional[int]:
    """The value of a string of ASCII digits, or None if it is above bound.

    The digit count decides first, so int() never reads a long string: that
    is quadratic in its length, or refused past 4,300 digits.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(bound)) or int(digits) > bound:
        return None
    return int(digits)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group(4) is not None:
            raise PolyParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("var", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dom: int, mode: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.dom = dom
        self.mode = scalars.check_mode(mode)
        self.depth = 0
        self.ops: List[tuple] = []  # postfix ops of the text

    def nest(self, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PolyParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING}", pos)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", pos)
        return self.advance()

    def minus(self, pos: int):
        if self.mode == scalars.NATURAL:
            raise SemiringViolation(f"'-' is not available in natural mode (position {pos})")
        self.advance()

    def parse_text(self) -> List[tuple]:
        """The postfix op list of the text, one pushed Poly per component."""
        while True:
            self.parse_expr()
            kind, val, pos = self.peek()
            if kind == "end":
                return self.ops
            if kind != "op" or val != ";":
                raise PolyParseError(f"unexpected token {val!r}", pos)
            self.advance()

    def parse_expr(self):
        self.parse_term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "+":
                self.advance()
                self.parse_term()
                self.ops.append(("+", pos))
            elif kind == "op" and val == "-":
                self.minus(pos)
                self.parse_term()
                self.ops += [("neg",), ("+", pos)]
            else:
                return

    def parse_term(self):
        self.parse_factor()
        while self.peek()[:2] == ("op", "*"):
            pos = self.advance()[2]
            self.parse_factor()
            self.ops.append(("*", pos))

    def parse_factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.minus(pos)
            self.nest(pos)
            self.parse_factor()
            self.depth -= 1
            self.ops.append(("neg",))
            return
        self.parse_atom()
        if self.peek()[:2] == ("op", "^"):
            op_pos = self.advance()[2]
            kind, val, pos = self.peek()
            if kind != "int":
                raise PolyParseError("'^' needs a nonnegative integer literal", pos)
            self.advance()
            exponent = bounded_int(val, MAX_EXPONENT)
            if exponent is None:
                raise PolyParseError(f"exponent exceeds {MAX_EXPONENT}", pos)
            self.ops.append(("^", exponent, op_pos))

    def literal(self, val: str, pos: int) -> int:
        digits = val.lstrip("0") or "0"
        if len(digits) > _LITERAL_DIGITS:
            raise PolyParseError(f"literal has more than {_LITERAL_DIGITS} digits", pos)
        return int(digits)

    def parse_atom(self):
        kind, val, pos = self.advance()
        if kind == "int":
            value = Fraction(self.literal(val, pos))
            if self.peek()[:2] == ("op", "/"):
                self.advance()
                kind3, val3, pos3 = self.advance()
                if kind3 != "int":
                    raise PolyParseError("rational literal needs an integer denominator", pos3)
                if self.mode == scalars.NATURAL:
                    raise SemiringViolation(f"rational literal in natural mode (position {pos})")
                denominator = self.literal(val3, pos3)
                if denominator == 0:
                    raise PolyParseError("zero denominator", pos3)
                value /= denominator
            self.ops.append(("c", value))
        elif kind == "var":
            index = bounded_int(val[1:], MAX_VARIABLES - 1)
            if index is None:
                raise PolyParseError(f"variable {val} exceeds the bound of {MAX_VARIABLES} variables", pos)
            if index >= self.dom:
                raise PolyParseError(f"variable {val} out of range for domain {self.dom}", pos)
            self.ops.append(("x", index))
        elif kind == "op" and val == "(":
            self.nest(pos)
            self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
        else:
            raise PolyParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def _capped_comb(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n, or a number past MAX_TERMS as soon as C(n, k) is."""
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i  # C(n - k + i, i), which grows with i
        if out > MAX_TERMS:
            break
    return out


def _check_budget(ops: List[tuple], dom: int) -> None:
    """Refuse the first operator at which the text could pass MAX_TERMS terms or MAX_COEFF_BITS bits.

    One pass over the ops bounds each stack entry by (terms, total degree,
    numerator sum, common denominator), without any polynomial arithmetic.
    A product of a and b has at most |a|*|b| terms, and a power p^e at most
    C(|p|+e-1, e), the number of multisets of e terms of p; neither has more
    than C(dom+d, dom), the number of monomials of degree at most d.  The
    smaller bound of each product and power is its entry's term bound, and
    goes into one running sum over the text.

    Every coefficient of an entry is A/K for its common denominator K, with
    |A| at most the entry's numerator sum S, so S and K bound the numerator
    and denominator of every coefficient in lowest terms.  A sum is over
    lcm(K_a, K_b); a product has S_a*S_b over K_a*K_b, and p^e has S^e over
    K^e, each computed only once log2 shows it stays within 2^MAX_COEFF_BITS.
    """
    stack: List[Tuple[int, int, int, int]] = []
    spent = 0
    for op in ops:
        tag = op[0]
        if tag == "c":
            stack.append((1, 0, abs(op[1].numerator), op[1].denominator))
        elif tag == "x":
            stack.append((1, 1, 1, 1))
        elif tag == "+":
            (n2, d2, s2, k2), (n1, d1, s1, k1) = stack.pop(), stack.pop()
            k = math.lcm(k1, k2)
            s = s1 * (k // k1) + s2 * (k // k2)
            if max(s, k).bit_length() > MAX_COEFF_BITS:
                raise PolyParseError(f"sum could have coefficients of more than {MAX_COEFF_BITS} bits", op[1])
            stack.append((n1 + n2, max(d1, d2), s, k))
        elif tag in ("^", "*"):
            if tag == "^":
                (n, d, s, k), e, what = stack.pop(), op[1], "power"
                count, degree = _capped_comb(max(n, 1) + e - 1, e), e * d
                bits = e * math.log2(max(s, k))
            else:
                (n2, d2, s2, k2), (n1, d1, s1, k1), what = stack.pop(), stack.pop(), "product"
                count, degree = n1 * n2, d1 + d2
                bits = math.log2(max(s1, k1)) + math.log2(max(s2, k2))
            count = min(count, _capped_comb(dom + degree, dom))
            spent += count
            if spent > MAX_TERMS:
                raise PolyParseError(
                    f"{what} could have more than {MAX_TERMS} terms, summed over the text", op[-1]
                )
            if bits > MAX_COEFF_BITS:
                raise PolyParseError(
                    f"{what} could have coefficients of more than {MAX_COEFF_BITS} bits", op[-1]
                )
            s, k = (s**e, k**e) if tag == "^" else (s1 * s2, k1 * k2)
            stack.append((count, degree, s, k))


def _fold(ops: List[tuple], dom: int, mode: str) -> List[Poly]:
    """Check the term budget, then evaluate the ops on a stack of factor lists, one Poly left per component.

    A stack entry is a product, kept as its (base, count) pairs and multiplied
    out by poly_product, in text order, only where a sum, a negation or the end
    of the text needs its terms.
    A '^' on an entry that is not one plain base multiplies it out first, so
    the fold does no more multiplications than op-by-op evaluation, and keeps
    no more pairs than the text has atoms.
    """
    _check_budget(ops, dom)
    stack: List[List[Tuple[Poly, int]]] = []
    for op in ops:
        tag = op[0]
        if tag == "c":
            stack.append([(Poly.constant(dom, op[1], mode), 1)])
        elif tag == "x":
            stack.append([(Poly.variable(dom, op[1], mode), 1)])
        elif tag == "neg":
            stack.append([(poly_scale(poly_product(stack.pop()), -1), 1)])
        elif tag == "^":
            if op[1] == 0:
                stack[-1] = [(Poly.constant(dom, 1, mode), 1)]
            elif op[1] > 1:
                stack[-1] = [(poly_product(stack[-1]), op[1])]
        elif tag == "+":
            b = poly_product(stack.pop())
            stack[-1] = [(poly_add(poly_product(stack[-1]), b), 1)]
        else:
            b = stack.pop()
            stack[-1] += b
    return [poly_product(entry) for entry in stack]


def parse_poly(text: str, dom: int, mode: str = scalars.RATIONAL) -> Poly:
    ops = _Parser(text, dom, mode).parse_text()
    if ";" in text:
        raise PolyParseError("expected a single component", text.index(";"))
    return _fold(ops, dom, mode)[0]


def parse_polymap(text: str, dom: int, mode: str = scalars.RATIONAL) -> PolyMap:
    comps = tuple(_fold(_Parser(text, dom, mode).parse_text(), dom, mode))
    return PolyMap(dom, len(comps), comps, mode)
