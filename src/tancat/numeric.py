"""Forward-mode numeric differentiation via dual numbers.

A NumericProgram holds the terms of each output of a polynomial map, each
coefficient converted to a float once, and evaluates them over dual
numbers.  It never calls the symbolic D, so it is an independent oracle
for it.  dual_eval pushes a (point, direction) pair through the program
and returns values together with directional derivatives; fd_check
compares those tangents against central finite differences.  Non-finite
intermediates raise NonFiniteError rather than propagating silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import DimensionMismatch, NonFiniteError
from .poly import PolyMap


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

    def __pow__(self, e: int) -> "Dual":
        if e < 0:
            raise ValueError("negative exponents are not supported")
        if e == 0:
            return Dual(1.0, 0.0)
        return Dual(
            self.primal**e,
            float(e) * self.primal ** (e - 1) * self.tangent,
        )


@dataclass(frozen=True)
class NumericProgram:
    dom: int
    cod: int
    outputs: Tuple[tuple, ...]  # per output, ((exponent, float coefficient), ...)

    @staticmethod
    def from_polymap(f: PolyMap) -> "NumericProgram":
        outputs = tuple(tuple((ev, float(c)) for ev, c in p.terms) for p in f.components)
        return NumericProgram(f.dom, f.cod, outputs)


def _eval_terms(terms, env: Sequence[Dual]) -> Dual:
    """Sum of c * x_i^e_i * ..., folded left to right in term order."""
    acc = None
    for ev, c in terms:
        term = None
        for x, e in zip(env, ev):
            if e:
                factor = x if e == 1 else x**e
                term = factor if term is None else term * factor
        if term is None or c != 1:
            term = Dual(c, 0.0) if term is None else Dual(c, 0.0) * term
        acc = term if acc is None else acc + term
    return acc if acc is not None else Dual(0.0, 0.0)


def dual_eval(prog: NumericProgram, point: Sequence[float], direction: Sequence[float]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Values and exact directional derivatives at (point, direction)."""
    if len(point) != prog.dom or len(direction) != prog.dom:
        raise DimensionMismatch(f"program expects {prog.dom} input coordinates")
    env = [Dual(float(x), float(v)) for x, v in zip(point, direction)]
    values, tangents = [], []
    for i, terms in enumerate(prog.outputs):
        try:
            out = _eval_terms(terms, env)
        except OverflowError as exc:
            raise NonFiniteError(f"overflow in output {i}") from exc
        if not (math.isfinite(out.primal) and math.isfinite(out.tangent)):
            raise NonFiniteError(f"non-finite value in output {i}")
        values.append(out.primal)
        tangents.append(out.tangent)
    return tuple(values), tuple(tangents)


def eval_program(prog: NumericProgram, point: Sequence[float]) -> Tuple[float, ...]:
    values, _ = dual_eval(prog, point, [0.0] * prog.dom)
    return values


def fd_check(prog: NumericProgram, point: Sequence[float], direction: Sequence[float]) -> float:
    """Max relative gap between dual tangents and central differences of step 1e-6."""
    h = 1e-6
    _, tangents = dual_eval(prog, point, direction)
    ahead = eval_program(prog, [x + h * v for x, v in zip(point, direction)])
    behind = eval_program(prog, [x - h * v for x, v in zip(point, direction)])
    worst = 0.0
    for t, a, b in zip(tangents, ahead, behind):
        fd = (a - b) / (2.0 * h)
        err = abs(fd - t) / max(1.0, abs(t))
        worst = max(worst, err)
    return worst
