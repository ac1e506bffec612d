"""The tangent-model contract, and the constructions generic over it.

A tangent model is an object with a ``mode`` attribute and these pure
methods, which the axiom suites are written against once:

- ``t_obj(x)`` and ``t_mor(f)``: the object and morphism actions of T;
- ``p(x)``, ``zero(x)``, ``plus(x)``, ``ell(x)`` and ``flip(x)``: the
  projection, zero section, fibrewise addition on the pullback square
  T_2, vertical lift and canonical symmetry at an object;
- ``t_n(x, n)``: the n-wide pullback power of p as a TnObject;
- ``pair_t2(x, f, g)``: <f, g> into T_2(x), requiring f;p = g;p;
- ``pair_t_t2(x, f, g)``: <f, g> into T(T_2(x)), requiring f;T(p) = g;T(p);
- ``compose(f, g)``, ``identity(x)`` and
  ``random_mor(x, y, rng, max_degree, coeff_bound)``;
- ``lift_witness(x)``: the LiftWitness for the universality of the lift.

cdc.PolyTangentModel is the polynomial model, and fibration's
FibreTangentModel, the fibre over a fixed context, derives from it.
Objects are plain ints (dimensions).  Nothing in this module assumes
morphisms are PolyMaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class TnObject:
    """The n-wide pullback power of p over an object, with its projections."""

    carrier: object
    projections: Tuple[object, ...]


@dataclass(frozen=True)
class LiftWitness:
    """Certificate data for the universality of the vertical lift.

    ``carrier`` realizes the canonical pullback of T(p) along 0 concretely;
    ``into_tangent`` and ``into_base`` are its cone legs.  ``kappa`` is the
    comparison map out of T_2, and ``rho`` its claimed two-sided inverse.
    The suites check kappa;rho = 1, rho;kappa = 1 and the cone equations;
    nothing here is assumed.
    """

    carrier: object
    kappa: object
    rho: object
    into_tangent: object
    into_base: object


def vertical_lift_v(model, m):
    """The comparison map v := <pi0 ell, pi1 0_T> T(+) : T_2(M) -> T^2(M)."""
    t2 = model.t_n(m, 2)
    left = model.compose(t2.projections[0], model.ell(m))
    right = model.compose(t2.projections[1], model.zero(model.t_obj(m)))
    paired = model.pair_t_t2(m, left, right)
    return model.compose(paired, model.t_mor(model.plus(m)))


def monad_mult(model, m):
    """mu := <p_T, T(p)> + : T^2(M) -> T(M), the multiplication of (T, 0, mu)."""
    paired = model.pair_t2(m, model.p(model.t_obj(m)), model.t_mor(model.p(m)))
    return model.compose(paired, model.plus(m))


def monoid_checks(checks, name, detail, compose, pair, plus, ident, unit, legs2, legs3):
    """The unit, commutative and associative laws of plus : X_2 -> X.

    X is a commutative monoid in the slice over its base: the tangent
    bundle of a tangent model, a differential bundle, or a differential
    object.  ``pair(f, g)`` maps into the fibred square X_2, ``ident`` is
    the identity of X, ``unit`` sends a point to the zero over its base,
    and ``legs2`` and ``legs3`` are the projections out of X_2 and X_3.
    Rows are ``<name>-unit``, ``<name>-commutative`` and
    ``<name>-associative``, each detailed by ``detail``.
    """
    eq = checks.equality
    prefix = f"{detail}, " if detail else ""
    with checks.guard(f"{name}-unit"):
        eq(f"{name}-unit", compose(pair(ident, unit), plus), ident, prefix + "unit on the right")
        eq(f"{name}-unit", compose(pair(unit, ident), plus), ident, prefix + "unit on the left")
    with checks.guard(f"{name}-commutative"):
        eq(f"{name}-commutative", compose(pair(legs2[1], legs2[0]), plus), plus, detail)
    with checks.guard(f"{name}-associative"):
        q0, q1, q2 = legs3
        s01 = compose(pair(q0, q1), plus)
        s12 = compose(pair(q1, q2), plus)
        eq(
            f"{name}-associative",
            compose(pair(s01, q2), plus),
            compose(pair(q0, s12), plus),
            detail,
        )
