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
  ``random_mor(x, y, rng, max_degree)``, whose coefficients, like those of
  a CD model's ``random_point(obj, rng)``, are ``scalars.random_scalar`` draws;
- ``lift_witness(x)``: the LiftWitness for the universality of the lift,
  whose R lies on the coordinates of T_2(x); bundles.lift_witness gives a
  bundle's, on E_2's, and ``universality_checks`` checks both.

cdc.PolyTangentModel is the polynomial model, and fibration's
FibreTangentModel, the fibre over a fixed context, derives from it.
Objects are plain ints (dimensions).  Nothing in this module assumes
morphisms are PolyMaps.  ``tangent_axioms_checks`` checks every axiom of
the contract against any such model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .params import SuiteParams, draws
from .report import CheckSet


@dataclass(frozen=True)
class TnObject:
    """The n-wide pullback power of p over an object, with its projections."""

    carrier: object
    projections: Tuple[object, ...]


@dataclass(frozen=True)
class LiftWitness:
    """Certificate data for the universality of a tangent model's lift, or a bundle's.

    The canonical pullback R of T(p) along 0 (T(q), for a bundle) is realized
    on the coordinates of the fibred square itself, T_2 (or E_2), so the
    comparison kappa = v;sel (mu;sel) into R must be the identity.  ``sel``
    reads R off the tangent, and ``into_tangent`` and ``into_base`` are R's
    cone legs.  ``universality_checks`` checks kappa = 1 and the cone.
    """

    sel: object
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


def universality_checks(checks, compose, comparison, witness, base_leg, ident, kappa_rows, cone, details):
    """Record that the lift is universal, and return kappa := comparison;witness.sel.

    ``comparison`` : X_2 -> T(X) is v for a tangent model and mu for a bundle,
    ``base_leg`` is X_2's map to the base and ``ident`` X_2's identity.  Each
    (name, detail) of ``kappa_rows`` records kappa = ident, and ``cone`` records
    kappa;into_tangent = comparison, kappa;into_base = base_leg and
    comparison = into_tangent, detailed by the three ``details`` in turn.
    """
    eq = checks.equality
    kappa = compose(comparison, witness.sel)
    for name, detail in kappa_rows:
        eq(name, kappa, ident, detail)
    over_tangent, over_base, as_leg = details
    eq(cone, compose(kappa, witness.into_tangent), comparison, over_tangent)
    eq(cone, compose(kappa, witness.into_base), base_leg, over_base)
    eq(cone, comparison, witness.into_tangent, as_leg)
    return kappa


def tangent_axioms_checks(model, params: SuiteParams) -> CheckSet:
    """The tangent-category axioms for any tangent model, objects up to params.max_dim."""
    checks = CheckSet()
    max_dim, max_degree = params.max_dim, params.max_degree

    eq = checks.equality

    for m in range(1, max_dim + 1):
        d = f"dim {m}"
        tm = model.t_obj(m)
        p = model.p(m)
        z = model.zero(m)
        pl = model.plus(m)
        el = model.ell(m)
        c = model.flip(m)
        t2 = model.t_n(m, 2)
        pi0, pi1 = t2.projections

        eq("p-section", model.compose(z, p), model.identity(m), d)
        eq("plus-over-base", model.compose(pl, p), model.compose(pi0, p), d)
        monoid_checks(
            checks,
            "plus",
            d,
            model.compose,
            lambda f, g: model.pair_t2(m, f, g),
            pl,
            model.identity(tm),
            model.compose(p, z),
            (pi0, pi1),
            model.t_n(m, 3).projections,
        )

        eq("flip-involution", model.compose(c, c), model.identity(model.t_obj(tm)), d)
        eq("ell-flip", model.compose(el, c), el, d)
        eq("ell-projection", model.compose(el, model.t_mor(p)), model.compose(p, z), d)
        with checks.guard("ell-additive"):
            paired = model.pair_t_t2(m, model.compose(pi0, el), model.compose(pi1, el))
            eq(
                "ell-additive",
                model.compose(pl, el),
                model.compose(paired, model.t_mor(pl)),
                d,
            )
        eq("ell-zero", model.compose(z, el), model.compose(z, model.t_mor(z)), d)
        eq("flip-vs-tangent-projection", model.compose(c, model.p(tm)), model.t_mor(p), d)
        with checks.guard("flip-additive"):
            a = model.compose(model.t_mor(pi0), c)
            b = model.compose(model.t_mor(pi1), c)
            paired = model.pair_t2(tm, a, b)
            eq(
                "flip-additive",
                model.compose(model.t_mor(pl), c),
                model.compose(paired, model.plus(tm)),
                d,
            )
        eq("flip-zero", model.compose(model.t_mor(z), c), model.zero(tm), d)
        eq(
            "ell-coassociative",
            model.compose(el, model.t_mor(el)),
            model.compose(el, model.ell(tm)),
            d,
        )
        c_t = model.flip(tm)
        t_c = model.t_mor(c)
        eq(
            "yang-baxter",
            model.compose(t_c, model.compose(c_t, t_c)),
            model.compose(c_t, model.compose(t_c, c_t)),
            d,
        )
        ell_t = model.ell(tm)
        eq(
            "ell-flip-braid",
            model.compose(c, model.compose(ell_t, t_c)),
            model.compose(model.t_mor(el), c_t),
            d + ", form c ell_T T(c) = T(ell) c_T",
        )
        eq(
            "ell-flip-braid",
            model.compose(ell_t, model.compose(t_c, c_t)),
            model.compose(c, model.t_mor(el)),
            d + ", form ell_T T(c) c_T = c T(ell)",
        )

        # v is built once for both rows; if building it raises, each row records the error
        with checks.guard("lift-v-projection", "lift-witness"):
            v = vertical_lift_v(model, m)
            with checks.guard("lift-v-projection"):
                eq(
                    "lift-v-projection",
                    model.compose(v, model.t_mor(p)),
                    model.compose(pi0, model.compose(p, z)),
                    d,
                )
                eq("lift-v-point", model.compose(v, model.p(tm)), pi1, d)
            with checks.guard("lift-witness"):
                # R sits on T_2's coordinates, so the comparison kappa = v;sel is the identity
                kappa = universality_checks(
                    checks, model.compose, v, model.lift_witness(m), model.compose(pi0, p),
                    model.identity(t2.carrier), [("lift-witness-inverse", d + ", kappa")],
                    "lift-witness-cone",
                    (d + ", kappa over T", d + ", kappa over the base", d + ", v as the leg into T"),
                )
                t_kappa = model.t_mor(kappa)
                eq("lift-witness-tangent", t_kappa, model.identity(model.t_obj(t2.carrier)), d + ", T level")
                if m == 1:
                    eq(
                        "lift-witness-tangent",
                        model.t_mor(t_kappa),
                        model.identity(model.t_obj(model.t_obj(t2.carrier))),
                        d + ", T^2 level",
                    )
        # functoriality carries every identity above to its image under T
        eq("functor-identity", model.t_mor(model.identity(m)), model.identity(tm), d)

    for i, rng in draws("tangent-axioms", "naturality", params):
        dx = rng.randint(1, max_dim)
        dy = rng.randint(1, max_dim)
        f = model.random_mor(dx, dy, rng, max_degree)
        desc = (f"instance {i}: f = ", f)
        tf = model.t_mor(f)
        eq("naturality-p", model.compose(tf, model.p(dy)), model.compose(model.p(dx), f), desc)
        eq("naturality-zero", model.compose(f, model.zero(dy)), model.compose(model.zero(dx), tf), desc)
        with checks.guard("naturality-plus"):
            pi0x, pi1x = model.t_n(dx, 2).projections
            t2f = model.pair_t2(dy, model.compose(pi0x, tf), model.compose(pi1x, tf))
            eq(
                "naturality-plus",
                model.compose(t2f, model.plus(dy)),
                model.compose(model.plus(dx), tf),
                desc,
            )
        eq(
            "naturality-ell",
            model.compose(tf, model.ell(dy)),
            model.compose(model.ell(dx), model.t_mor(tf)),
            desc,
        )
        t2f = model.t_mor(tf)
        eq(
            "naturality-flip",
            model.compose(t2f, model.flip(dy)),
            model.compose(model.flip(dx), t2f),
            desc,
        )

    for i, rng in draws("tangent-axioms", "functor", params):
        dx = rng.randint(1, max_dim)
        dy = rng.randint(1, max_dim)
        dz = rng.randint(1, max_dim)
        f = model.random_mor(dx, dy, rng, max_degree)
        g = model.random_mor(dy, dz, rng, max_degree)
        eq(
            "functor-compose",
            model.t_mor(model.compose(f, g)),
            model.compose(model.t_mor(f), model.t_mor(g)),
            (f"instance {i}: f = ", f, "; g = ", g),
        )
    return checks
