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
class NumericProgram:
    dom: int
    cod: int
    outputs: Tuple[tuple, ...]  # per output, ((exponent, float coefficient), ...)

    @staticmethod
    def from_polymap(f: PolyMap) -> "NumericProgram":
        outputs = tuple(tuple((ev, float(c)) for ev, c in p.terms) for p in f.components)
        return NumericProgram(f.dom, f.cod, outputs)


def _eval_terms(terms, env: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Sum of c * x_i^e_i * ..., folded left to right in term order over (primal, tangent) pairs.

    Each step is the dual-number rule for eps^2 = 0, with its float operations
    in a fixed order: (a, a') * (b, b') = (a*b, a*b' + b*a'), a power e >= 2 is
    (a^e, e * a^(e-1) * a'), and the coefficient enters as the factor (c, 0).
    """
    acc = None
    for ev, c in terms:
        p = None
        for (xp, xt), e in zip(env, ev):
            if e:
                fp, ft = (xp, xt) if e == 1 else (xp**e, float(e) * xp ** (e - 1) * xt)
                p, t = (fp, ft) if p is None else (p * fp, p * ft + fp * t)
        if p is None:
            p, t = c, 0.0
        elif c != 1:
            p, t = c * p, c * t + p * 0.0
        acc = (p, t) if acc is None else (acc[0] + p, acc[1] + t)
    return acc if acc is not None else (0.0, 0.0)


def dual_eval(
    prog: NumericProgram, point: Sequence[float], direction: Sequence[float]
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Values and exact directional derivatives at (point, direction)."""
    if len(point) != prog.dom or len(direction) != prog.dom:
        raise DimensionMismatch(f"program expects {prog.dom} input coordinates")
    env = [(float(x), float(v)) for x, v in zip(point, direction)]
    values, tangents = [], []
    for i, terms in enumerate(prog.outputs):
        try:
            value, tangent = _eval_terms(terms, env)
        except OverflowError as exc:
            raise NonFiniteError(f"overflow in output {i}") from exc
        if not (math.isfinite(value) and math.isfinite(tangent)):
            raise NonFiniteError(f"non-finite value in output {i}")
        values.append(value)
        tangents.append(tangent)
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
