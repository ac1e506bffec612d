"""Parser for the polynomial-map expression grammar.

One component per ';'-separated field.  Within a component:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := INT ('/' INT)? | VAR | '(' expr ')'

Variables are ``x0 .. x{dom-1}``; '^' takes an integer literal from 0 to
``MAX_EXPONENT``; 'a/b' is a rational literal.  '-' (unary or binary) is
only legal in rational mode; natural mode reports it as a semiring
violation.  Whitespace is insignificant.  Parentheses are accepted on
input; the canonical printer never emits them.

Parsing builds a small expression AST first (reused verbatim by the numeric
dual-number model), then folds it into a canonical Poly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from . import scalars
from .errors import PolyParseError, SemiringViolation
from .poly import Poly, PolyMap

# --- expression AST ---------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    arg: "Node"


Node = Union[Const, Var, Add, Mul, Pow, Neg]

# Parentheses and unary minus nest by recursion; deeper input is refused.
MAX_NESTING = 100
# '^' expands by repeated multiplication; a larger literal exponent is refused.
MAX_EXPONENT = 1000


def left_spine(node: Node) -> List[Node]:
    """Operands of a left-nested chain of ``type(node)``, leftmost first.

    Sums and products parse into left-nested chains as long as the input,
    so consumers fold them with a loop instead of recursing down them.
    """
    kind = type(node)
    rights = []
    while type(node) is kind:
        rights.append(node.right)
        node = node.left
    rights.append(node)
    return rights[::-1]


_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|([+\-*^/();])|(\S))")


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

    def parse_components(self) -> List[Node]:
        comps = [self.parse_expr()]
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == ";":
                self.advance()
                comps.append(self.parse_expr())
            elif kind == "end":
                return comps
            else:
                raise PolyParseError(f"unexpected token {val!r}", pos)

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "+":
                self.advance()
                node = Add(node, self.parse_term())
            elif kind == "op" and val == "-":
                if self.mode == scalars.NATURAL:
                    raise SemiringViolation(f"'-' is not available in natural mode (position {pos})")
                self.advance()
                node = Add(node, Neg(self.parse_term()))
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = Mul(node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Node:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            if self.mode == scalars.NATURAL:
                raise SemiringViolation(f"'-' is not available in natural mode (position {pos})")
            self.advance()
            self.nest(pos)
            node = Neg(self.parse_factor())
            self.depth -= 1
            return node
        node = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind != "int":
                raise PolyParseError("'^' needs a nonnegative integer literal", pos)
            self.advance()
            exponent = int(val)
            if exponent > MAX_EXPONENT:
                raise PolyParseError(f"exponent exceeds {MAX_EXPONENT}", pos)
            node = Pow(node, exponent)
        return node

    def parse_atom(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "int":
            numerator = int(val)
            kind2, _, _ = self.peek()
            if kind2 == "op" and self.peek()[1] == "/":
                self.advance()
                kind3, val3, pos3 = self.advance()
                if kind3 != "int":
                    raise PolyParseError("rational literal needs an integer denominator", pos3)
                if self.mode == scalars.NATURAL:
                    raise SemiringViolation(f"rational literal in natural mode (position {pos})")
                if int(val3) == 0:
                    raise PolyParseError("zero denominator", pos3)
                return Const(Fraction(numerator, int(val3)))
            return Const(Fraction(numerator))
        if kind == "var":
            index = int(val[1:])
            if index >= self.dom:
                raise PolyParseError(f"variable {val} out of range for domain {self.dom}", pos)
            return Var(index)
        if kind == "op" and val == "(":
            self.nest(pos)
            node = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise PolyParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse_components(text: str, dom: int, mode: str = scalars.RATIONAL) -> List[Node]:
    """Parse to raw expression ASTs, one per ';'-separated component."""
    return _Parser(text, dom, mode).parse_components()


def ast_to_poly(node: Node, dom: int, mode: str) -> Poly:
    if isinstance(node, Const):
        return Poly.constant(dom, scalars.coerce(mode, node.value), mode)
    if isinstance(node, Var):
        return Poly.variable(dom, node.index, mode)
    if isinstance(node, (Add, Mul)):
        operands = left_spine(node)
        acc = ast_to_poly(operands[0], dom, mode)
        for operand in operands[1:]:
            rhs = ast_to_poly(operand, dom, mode)
            acc = acc + rhs if type(node) is Add else acc * rhs
        return acc
    if isinstance(node, Pow):
        base = ast_to_poly(node.base, dom, mode)
        out = Poly.constant(dom, 1, mode)
        for _ in range(node.exponent):
            out = out * base
        return out
    if isinstance(node, Neg):
        inner = ast_to_poly(node.arg, dom, mode)
        return Poly.from_terms(dom, [(ev, scalars.negate(mode, c)) for ev, c in inner.terms], mode)
    raise TypeError(f"unknown node {node!r}")


def parse_poly(text: str, dom: int, mode: str = scalars.RATIONAL) -> Poly:
    nodes = parse_components(text, dom, mode)
    if len(nodes) != 1:
        raise PolyParseError("expected a single component", text.index(";"))
    return ast_to_poly(nodes[0], dom, mode)


def parse_polymap(text: str, dom: int, mode: str = scalars.RATIONAL) -> PolyMap:
    nodes = parse_components(text, dom, mode)
    comps = tuple(ast_to_poly(n, dom, mode) for n in nodes)
    return PolyMap(dom, len(comps), comps, mode)
