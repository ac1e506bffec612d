"""Forward-mode numeric differentiation via dual numbers.

A NumericProgram is a tuple of expression trees (the same AST the text
parser produces) evaluated over floats.  dual_eval pushes a (point,
direction) pair through the program and returns values together with
directional derivatives; fd_check compares those tangents against central
finite differences.  Non-finite intermediates raise NonFiniteError rather
than propagating silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import DimensionMismatch, NonFiniteError
from .parser import Add, Const, Mul, Neg, Node, Pow, Var, left_spine
from .poly import Poly, PolyMap


@dataclass(frozen=True)
class Dual:
    """A first-order jet a + eps*b with eps^2 = 0."""

    primal: float
    tangent: float

    def __add__(self, other: "Dual") -> "Dual":
        return Dual(self.primal + other.primal, self.tangent + other.tangent)

    def __mul__(self, other: "Dual") -> "Dual":
        return Dual(
            self.primal * other.primal,
            self.primal * other.tangent + other.primal * self.tangent,
        )

    def __neg__(self) -> "Dual":
        return Dual(-self.primal, -self.tangent)

    def __pow__(self, e: int) -> "Dual":
        if e < 0:
            raise ValueError("negative exponents are not supported")
        if e == 0:
            return Dual(1.0, 0.0)
        return Dual(
            self.primal**e,
            float(e) * self.primal ** (e - 1) * self.tangent,
        )


def _eval_node(node: Node, env: Sequence[Dual]) -> Dual:
    if isinstance(node, Const):
        return Dual(float(node.value), 0.0)
    if isinstance(node, Var):
        return env[node.index]
    if isinstance(node, (Add, Mul)):
        operands = left_spine(node)
        acc = _eval_node(operands[0], env)
        for operand in operands[1:]:
            rhs = _eval_node(operand, env)
            acc = acc + rhs if type(node) is Add else acc * rhs
        return acc
    if isinstance(node, Pow):
        return _eval_node(node.base, env) ** node.exponent
    if isinstance(node, Neg):
        return -_eval_node(node.arg, env)
    raise TypeError(f"unknown expression node {node!r}")


@dataclass(frozen=True)
class NumericProgram:
    dom: int
    cod: int
    outputs: Tuple[Node, ...]

    @staticmethod
    def from_polymap(f: PolyMap) -> "NumericProgram":
        return NumericProgram(f.dom, f.cod, tuple(_poly_node(c) for c in f.components))


def _poly_node(p: Poly) -> Node:
    acc: Node | None = None
    for ev, coeff in p.terms:
        term: Node | None = None
        for i, e in enumerate(ev):
            if e == 0:
                continue
            factor: Node = Var(i) if e == 1 else Pow(Var(i), e)
            term = factor if term is None else Mul(term, factor)
        c = Fraction(coeff)
        if term is None or c != 1:
            const: Node = Const(c)
            term = const if term is None else Mul(const, term)
        acc = term if acc is None else Add(acc, term)
    return acc if acc is not None else Const(Fraction(0))


def _run(prog: NumericProgram, point: Sequence[float], direction: Sequence[float]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    if len(point) != prog.dom or len(direction) != prog.dom:
        raise DimensionMismatch(f"program expects {prog.dom} input coordinates")
    env = [Dual(float(x), float(v)) for x, v in zip(point, direction)]
    values, tangents = [], []
    for i, node in enumerate(prog.outputs):
        try:
            out = _eval_node(node, env)
        except OverflowError as exc:
            raise NonFiniteError(f"overflow in output {i}") from exc
        if not (math.isfinite(out.primal) and math.isfinite(out.tangent)):
            raise NonFiniteError(f"non-finite value in output {i}")
        values.append(out.primal)
        tangents.append(out.tangent)
    return tuple(values), tuple(tangents)


def eval_program(prog: NumericProgram, point: Sequence[float]) -> Tuple[float, ...]:
    values, _ = _run(prog, point, [0.0] * prog.dom)
    return values


def dual_eval(prog: NumericProgram, point: Sequence[float], direction: Sequence[float]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Values and exact directional derivatives at (point, direction)."""
    return _run(prog, point, direction)


def fd_check(prog: NumericProgram, point: Sequence[float], direction: Sequence[float], h: float = 1e-6) -> float:
    """Max relative gap between dual tangents and central differences."""
    _, tangents = dual_eval(prog, point, direction)
    ahead = eval_program(prog, [x + h * v for x, v in zip(point, direction)])
    behind = eval_program(prog, [x - h * v for x, v in zip(point, direction)])
    worst = 0.0
    for t, a, b in zip(tangents, ahead, behind):
        fd = (a - b) / (2.0 * h)
        err = abs(fd - t) / max(1.0, abs(t))
        worst = max(worst, err)
    return worst
