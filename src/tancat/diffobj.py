"""Differential objects and the differential they induce.

A differential object is a commutative-monoid carrier A together with a
second projection phat : T(A) -> A exhibiting T(A) as a product A x A (the
first factor read off by phat, the second by p).  Differential objects are
the same thing as differential bundles over the empty base, and a coherent
choice of them across all objects recovers the differential combinator as
D[f] = mu;T(f);phat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import scalars
from .errors import PreconditionFailure
from .bundles import DiffBundle, bracket, display_bundle, mu_map, verify_bundle
from .cdc import cdc_T, cdc_ell, cdc_flip, memo_by_input, point_proj, t_n_carrier, tangent_plus, tangent_zero
from .poly import (
    PolyMap,
    block_swap,
    identity_map,
    polymap_add,
    polymap_compose,
    polymap_pair,
    polymap_proj,
    zero_map,
)
from .report import CheckSet


@dataclass(frozen=True)
class DiffObject:
    carrier: int
    sigma: PolyMap
    zeta: PolyMap
    phat: PolyMap
    mode: str


@lru_cache(maxsize=None)
def canonical_diffobj(k: int, mode: str = scalars.RATIONAL) -> DiffObject:
    """Coordinatewise addition, zero, and tangent-block projection."""
    sigma = polymap_add(polymap_proj(2 * k, 0, k, mode), polymap_proj(2 * k, k, 2 * k, mode))
    return DiffObject(
        carrier=k,
        sigma=sigma,
        zeta=zero_map(0, k, mode),
        phat=polymap_proj(2 * k, 0, k, mode),
        mode=mode,
    )


def _zhat(o: DiffObject) -> PolyMap:
    """! zeta : A -> A, the constant map at the zero."""
    return polymap_compose(zero_map(o.carrier, 0, o.mode), o.zeta)


def diffobj_lambda(o: DiffObject) -> PolyMap:
    """The lift <1, ! zeta> : A -> T(A), a |-> (a, zeta())."""
    return polymap_pair(identity_map(o.carrier, o.mode), _zhat(o))


@memo_by_input
def diffobj_mu(o: DiffObject) -> PolyMap:
    """mu := <pi0 lambda, pi1 0> T(sigma) : A x A -> T(A), the bundle mu over the point."""
    return mu_map(bundle_from_diffobj(o))


def product_pairing(o: DiffObject) -> PolyMap:
    """<phat, p> : T(A) -> A x A."""
    return polymap_pair(o.phat, point_proj(o.carrier, o.mode))


def _product_witness(checks: CheckSet, o: DiffObject, prefix: str = "") -> None:
    """The two product-witness rows: mu and <phat, p> are mutually inverse."""
    eq = checks.equality
    with checks.guard("product-witness"):
        mu, pairing = diffobj_mu(o), product_pairing(o)
        ident = identity_map(2 * o.carrier, o.mode)
        eq("product-witness", polymap_compose(pairing, mu), ident, prefix + "mu after <phat, p>")
        eq("product-witness", polymap_compose(mu, pairing), ident, prefix + "<phat, p> after mu")


def diffobj_from_bundle(b: DiffBundle) -> DiffObject:
    """Read a differential object off a bundle over the empty base.

    Structural maps are transported to the fibre carrier through the
    trivialization, and phat is computed as the bracket of the identity.
    """
    if b.base != 0:
        raise PreconditionFailure("base-not-terminal: bundle base must have dim 0")
    k = b.fibre
    sigma = polymap_compose(b.sigma, b.triv)
    zeta = polymap_compose(b.zeta, b.triv)
    one = bracket(identity_map(2 * b.total, b.mode), b)
    phat = polymap_compose(
        cdc_T(b.triv_inv), polymap_compose(one, b.triv)
    )
    return DiffObject(carrier=k, sigma=sigma, zeta=zeta, phat=phat, mode=b.mode)


def bundle_from_diffobj(o: DiffObject) -> DiffBundle:
    """The bundle over the empty base with lift <1, ! zeta>."""
    k = o.carrier
    return display_bundle(0, k, o.sigma, o.zeta, identity_map(k, o.mode), _zhat(o))


def verify_diffobj(o: DiffObject) -> CheckSet:
    """The bundle laws of o over the point (rows bundle:*), then the rows phat adds.

    The monoid laws of sigma and lambda;p = ! zeta are bundle rows
    (bundle:sigma-*, bundle:lambda-zeta-square); phat adds the product
    witness, its five squares and the section lambda;phat = 1.
    """
    checks = CheckSet()
    checks.absorb(verify_bundle(bundle_from_diffobj(o)), prefix="bundle:")
    k = o.carrier
    mode = o.mode

    eq = checks.equality

    _product_witness(checks, o)

    def phat_sum(legs):
        """<leg_0 phat, leg_1 phat> sigma."""
        return polymap_compose(polymap_pair(*(polymap_compose(leg, o.phat) for leg in legs)), o.sigma)

    legs2 = (polymap_proj(2 * k, 0, k, mode), polymap_proj(2 * k, k, 2 * k, mode))
    eq("phat-additive", polymap_compose(cdc_T(o.sigma), o.phat), phat_sum(map(cdc_T, legs2)))
    eq("phat-zero", polymap_compose(cdc_T(o.zeta), o.phat), o.zeta)
    plus_legs = t_n_carrier(k, 2, mode).projections
    eq("phat-plus", polymap_compose(tangent_plus(k, mode), o.phat), phat_sum(plus_legs))
    eq(
        "phat-zero-section",
        polymap_compose(tangent_zero(k, mode), o.phat),
        _zhat(o),
    )
    eq(
        "phat-lift-coherence",
        polymap_compose(cdc_ell(k, mode), polymap_compose(cdc_T(o.phat), o.phat)),
        o.phat,
    )
    eq("lambda-sections", polymap_compose(diffobj_lambda(o), o.phat), identity_map(k, mode), "lambda;phat")
    return checks


def derived_D(f: PolyMap) -> PolyMap:
    """D[f] := mu T(f) phat, the differential recovered from the canonical objects."""
    return polymap_compose(
        diffobj_mu(canonical_diffobj(f.dom, f.mode)),
        polymap_compose(cdc_T(f), canonical_diffobj(f.cod, f.mode).phat),
    )


def check_cds(bound: int, mode: str = scalars.RATIONAL) -> CheckSet:
    """Coherence of the canonical differential-object assignment.

    Verifies the product compatibility (lambda- and phat-forms), the
    T-compatibility (both forms), the flip identity c T(phat) phat =
    T(phat) phat, the exchange identity, and the product witness at every
    dimension <= bound.  A bound that is not an int >= 1 is refused, as it would check nothing.
    """
    if type(bound) is not int or bound < 1:  # a bool is an int to isinstance
        raise ValueError("invalid-params: bound must be an integer >= 1")
    checks = CheckSet()

    eq = checks.equality

    dims = range(1, bound + 1)
    for k1 in dims:
        for k2 in dims:
            a, b2, ab = (canonical_diffobj(d, mode) for d in (k1, k2, k1 + k2))
            n = k1 + k2
            pi_a = polymap_proj(n, 0, k1, mode)
            pi_b = polymap_proj(n, k1, n, mode)
            lam_pair = polymap_pair(
                polymap_compose(pi_a, diffobj_lambda(a)),
                polymap_compose(pi_b, diffobj_lambda(b2)),
            )
            eq(
                "cds1-lambda",
                polymap_compose(diffobj_lambda(ab), block_swap(k1, k2, k1, k2, mode)),
                lam_pair,
                f"dims ({k1},{k2})",
            )
            phat_pair = polymap_pair(
                polymap_compose(cdc_T(pi_a), a.phat),
                polymap_compose(cdc_T(pi_b), b2.phat),
            )
            eq("cds1-phat", ab.phat, phat_pair, f"dims ({k1},{k2})")
    for k in dims:
        a, ta = canonical_diffobj(k, mode), canonical_diffobj(2 * k, mode)
        flip = cdc_flip(k, mode)
        eq("cds2-lambda", diffobj_lambda(ta), polymap_compose(cdc_T(diffobj_lambda(a)), flip), f"dim {k}")
        eq("cds2-phat", ta.phat, polymap_compose(flip, cdc_T(a.phat)), f"dim {k}")
        tp = polymap_compose(cdc_T(a.phat), a.phat)
        eq("flip-phat", polymap_compose(flip, tp), tp, f"dim {k}")
        with checks.guard("exchange"):
            mu_ta = diffobj_mu(ta)
            t_mu = cdc_T(diffobj_mu(a))
            lhs = polymap_compose(block_swap(k, k, k, k, mode), polymap_compose(mu_ta, t_mu))
            rhs = polymap_compose(polymap_compose(mu_ta, t_mu), flip)
            eq("exchange", lhs, rhs, f"dim {k}")
        _product_witness(checks, a, f"dim {k}: ")
    return checks
