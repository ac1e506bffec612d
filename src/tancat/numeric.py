"""Exact directional derivatives of polynomial maps: an oracle for D that never calls it.

dual_eval folds a map's terms over dual numbers (a, a') with eps^2 = 0, in
the map's own scalars (Rall's jets), and returns the value of each output
and its derivative along a direction.  fd_check differentiates
g(t) = f(point + t*direction) a second way, from values of eval_polymap
alone, and returns its gap to dual_eval's tangents, so a right tangent
leaves a residual of exactly 0.  Every result is exact; an integral one is
an int.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Sequence, Tuple

from . import scalars
from .errors import DimensionMismatch
from .poly import PolyMap, eval_polymap, poly_degree


def _int_if_integral(value):
    return value if value.denominator != 1 else value.numerator


def dual_eval(f: PolyMap, point: Sequence, direction: Sequence) -> Tuple[tuple, tuple]:
    """Values and directional derivatives of f at point along direction.

    A term c * x_1^e_1 * ... starts as the jet (c, 0) and takes one factor
    (x^e, e * x^(e-1) * v) per variable, by (a, a') * (q, q') = (a*q, a*q' + a'*q).
    """
    if len(point) != f.dom or len(direction) != f.dom:
        raise DimensionMismatch(
            f"{f.dom} variables but a point of length {len(point)} and a direction of length {len(direction)}"
        )
    env = [(scalars.coerce(f.mode, x), scalars.coerce(f.mode, v)) for x, v in zip(point, direction)]
    values, tangents = [], []
    for p in f.components:
        value = tangent = 0
        for ev, c in p.terms:
            a, da = c, 0
            for (x, v), e in zip(env, ev):
                if e:
                    lower = x ** (e - 1)
                    q = lower * x
                    a, da = a * q, a * e * lower * v + da * q
            value += a
            tangent += da
        values.append(_int_if_integral(value))
        tangents.append(_int_if_integral(tangent))
    return tuple(values), tuple(tangents)


def fd_check(f: PolyMap, point: Sequence, direction: Sequence) -> tuple:
    """Per output, g'(0) - tangent for g(t) = f(point + t*direction); all 0 when dual_eval is right.

    g is a polynomial of degree at most d, the degree of f, so the Newton
    forward-difference series sum_k (-1)^(k+1) Delta^k g(0) / k, k = 1..d,
    is g'(0) exactly.  Collecting each g(t) over the series gives it the
    weight (-1)^(t+1) C(d, t) / t for t >= 1 and -(1/1 + ... + 1/d) for t = 0,
    so the d + 1 values of g are summed once, without a difference table.
    """
    _, tangents = dual_eval(f, point, direction)
    d = max(map(poly_degree, f.components), default=0)
    den = lcm(*range(1, d + 1))
    weights = [-sum(den // k for k in range(1, d + 1))]
    weights += [(-1) ** (t + 1) * comb(d, t) * (den // t) for t in range(1, d + 1)]
    sums = [0] * f.cod
    for t, w in enumerate(weights):
        values = eval_polymap(f, [x + t * v for x, v in zip(point, direction)])
        sums = [s + w * y for s, y in zip(sums, values)]
    return tuple(_int_if_integral(Fraction(s, den) - tangent) for s, tangent in zip(sums, tangents))
