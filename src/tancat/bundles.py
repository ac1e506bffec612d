"""Differential bundles over the polynomial model.

A differential bundle packages an additive bundle (q : E -> M, sigma, zeta)
with a lift lambda : E -> T(E) subject to the lift axioms, and here always
carries an explicit trivialization t : E ~ M x F ("display normal form").
The trivialization is what makes everything else mechanical: the fibred
square E_2 is realized as the carrier (x, a, b) of dimension m + 2k, and
the canonical pullback R of T(q) along 0 as (x, alpha, beta) on the same
coordinates, so the lift is universal exactly when the comparison
kappa : E_2 -> R is the identity (see make_bundle for why); verify_bundle
checks that with the tangent axioms' model.universality_checks.

Nothing is trusted: make_bundle only derives data, verify_bundle checks
every axiom and the witness identities, reporting counterexamples in
canonical form.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Optional, Tuple

from . import scalars
from .errors import (
    DimensionMismatch,
    NotABundleMorphism,
    PolyParseError,
    PreconditionFailure,
)
from .cdc import (
    LiftWitness,
    cdc_T,
    cdc_ell,
    cdc_flip,
    memo_by_input,
    point_proj,
    t_pair,
    tangent_sum,
    tangent_zero,
)
from .poly import (
    PolyMap,
    block_swap,
    coordinate_map,
    identity_map,
    poly_add,
    poly_scale,
    polymap_add,
    polymap_compose,
    polymap_pair,
    polymap_product,
    polymap_proj,
    zero_map,
)
from .model import monoid_checks, universality_checks
from .report import CheckSet


@dataclass(frozen=True)
class DiffBundle:
    base: int
    fibre: int
    total: int
    q: PolyMap
    sigma: PolyMap
    zeta: PolyMap
    lam: PolyMap
    triv: PolyMap
    triv_inv: PolyMap
    mode: str

    @property
    def e2_dim(self) -> int:
        return self.base + 2 * self.fibre


@dataclass(frozen=True)
class BundleMor:
    """A commuting square f : E -> E', g : M -> M' with f;q' = q;g."""

    f: PolyMap
    g: PolyMap


# ---------------------------------------------------------------------------
# Coordinate plumbing through the trivialization
#
# The structure maps that a bundle alone determines and that are asked for
# again are built once per bundle (memo_by_input), and live as long as the
# bundle does: tau's inverse, mu, bracket's legs, the display blocks and
# zeta's fibre part.  Equal bundles recur, since pulling a standard or tangent
# family back along any map gives the standard bundle over its domain again,
# and an equal bundle gets the same maps.  tau and the lift witness are built
# on each call, as a memo on either missed more often than it hit, and so is
# each bundle_pi projection: a coordinate map, then triv_inv, an identity or a
# permutation.


def tangent_triv(b: DiffBundle) -> PolyMap:
    """tau : T(E) -> (dx, x, da, a), the tangent of the trivialization."""
    m, k = b.base, b.fibre
    return polymap_compose(cdc_T(b.triv), block_swap(m, k, m, k, b.mode))


@memo_by_input
def tangent_triv_inv(b: DiffBundle) -> PolyMap:
    m, k = b.base, b.fibre
    return polymap_compose(block_swap(m, m, k, k, b.mode), cdc_T(b.triv_inv))


def bundle_pi(b: DiffBundle, which: int, n: int = 2) -> PolyMap:
    """Projection E_n -> E onto summand ``which``; E_n carries (x, a_1, ..., a_n)."""
    m, k = b.base, b.fibre
    display = coordinate_map(m + n * k, (*range(m), *range(m + which * k, m + (which + 1) * k)), b.mode)
    return polymap_compose(display, b.triv_inv)


def _display_pair(m: int, u: PolyMap, v: PolyMap) -> PolyMap:
    """(x, a), (x, b) |-> (x, a, b): the fibred pairing over a base of dimension m."""
    if u.dom != v.dom:
        raise DimensionMismatch("a fibred pairing needs two maps out of one domain")
    if u.components[:m] != v.components[:m]:
        raise PreconditionFailure("pair into E_2: base images disagree")
    return PolyMap(u.dom, u.cod + v.cod - m, u.components + v.components[m:], u.mode)


def pair_into_e2(b: DiffBundle, u: PolyMap, v: PolyMap) -> PolyMap:
    """<u, v> : W -> E_2 for u, v : W -> E with u;q = v;q."""
    return _display_pair(b.base, polymap_compose(u, b.triv), polymap_compose(v, b.triv))


def pair_into_t_e2(b: DiffBundle, u: PolyMap, v: PolyMap) -> PolyMap:
    """<u, v> : W -> T(E_2) for u, v : W -> T(E) with u;T(q) = v;T(q)."""
    t = cdc_T(b.triv)
    return t_pair(partial(_display_pair, b.base), polymap_compose(u, t), polymap_compose(v, t))


def fibre_sum(b: DiffBundle, u: PolyMap, v: PolyMap) -> PolyMap:
    """<u, v>;sigma : W -> E for u, v : W -> E with u;q = v;q."""
    return polymap_compose(pair_into_e2(b, u, v), b.sigma)


def t_fibre_sum(b: DiffBundle, u: PolyMap, v: PolyMap) -> PolyMap:
    """<u, v>;T(sigma) : W -> T(E) for u, v : W -> T(E) with u;T(q) = v;T(q)."""
    return polymap_compose(pair_into_t_e2(b, u, v), cdc_T(b.sigma))


def assemble_tangent(b: DiffBundle, dx: PolyMap, x: PolyMap, da: PolyMap, a: PolyMap) -> PolyMap:
    """Build W -> T(E) from display blocks (dx, x, da, a)."""
    return polymap_compose(polymap_pair(dx, x, da, a), tangent_triv_inv(b))


# ---------------------------------------------------------------------------
# The mu map, the lift witness, and the bracket


@memo_by_input
def mu_map(b: DiffBundle) -> PolyMap:
    """mu := <pi0 lambda, pi1 0> T(sigma) : E_2 -> T(E)."""
    left = polymap_compose(bundle_pi(b, 0), b.lam)
    right = polymap_compose(bundle_pi(b, 1), tangent_zero(b.total, b.mode))
    return t_fibre_sum(b, left, right)


def lift_witness(b: DiffBundle) -> LiftWitness:
    """The LiftWitness of b: R on E_2's coordinates (x, alpha, beta), read off T(E) through tau.

    into_tangent is (x, alpha, beta) |-> tau^{-1}(0, x, alpha, beta), and into_base reads x.
    """
    m, r, mode = b.base, b.e2_dim, b.mode
    return LiftWitness(
        sel=polymap_compose(tangent_triv(b), polymap_proj(2 * b.total, m, 2 * b.total, mode)),
        into_tangent=polymap_compose(coordinate_map(r, (*(None,) * m, *range(r)), mode), tangent_triv_inv(b)),
        into_base=polymap_proj(r, 0, m, mode),
    )


@memo_by_input
def bracket_legs(b: DiffBundle) -> Tuple[PolyMap, PolyMap, PolyMap]:
    """bracket's maps out of T(E) that the bundle alone fixes: p;q;0_M, sel;pi0 and p;0_E.

    The precondition compares f;T(q) with f;p;q;0_M, the answer is f;sel;pi0,
    and f;p;0_E is the second summand of the defining equation.
    """
    p_e = point_proj(b.total, b.mode)
    return (
        polymap_compose(p_e, polymap_compose(b.q, tangent_zero(b.base, b.mode))),
        polymap_compose(lift_witness(b).sel, bundle_pi(b, 0)),
        polymap_compose(p_e, tangent_zero(b.total, b.mode)),
    )


def bracket(f: PolyMap, b: DiffBundle) -> PolyMap:
    """The unique {f} with f = <{f} lambda, f p 0> T(sigma).

    Accepts f : X -> T(E) in the equalizer f;T(q) = f;p;q;0 and reads the
    answer off through R = E_2; the defining equation is re-verified exactly.
    """
    e = b.total
    if f.cod != 2 * e:
        raise DimensionMismatch(f"bracket input must land in T(E) = {2 * e}")
    over_base, read_off, point_zero = bracket_legs(b)
    lhs = polymap_compose(f, cdc_T(b.q))
    rhs = polymap_compose(f, over_base)
    if lhs != rhs:
        raise PreconditionFailure(
            "bracket precondition f;T(q) = f;p;q;0 fails; " + _residual(lhs, rhs, b.mode)
        )
    out = polymap_compose(f, read_off)
    # defining equation, re-checked from scratch
    left = polymap_compose(out, b.lam)
    right = polymap_compose(f, point_zero)
    recon = t_fibre_sum(b, left, right)
    if recon != f:
        raise PreconditionFailure(
            "bracket defining equation failed; " + _residual(recon, f, b.mode)
        )
    return out


def _residual(lhs: PolyMap, rhs: PolyMap, mode: str) -> str:
    if mode == scalars.RATIONAL:
        diff = tuple(
            poly_add(a, poly_scale(bb, Fraction(-1))) for a, bb in zip(lhs.components, rhs.components)
        )
        return f"residual = {PolyMap(lhs.dom, lhs.cod, diff, mode)}"
    return f"lhs = {lhs}; rhs = {rhs}"


# ---------------------------------------------------------------------------
# Construction and verification


def make_bundle(
    base: int,
    fibre: int,
    sigma: PolyMap,
    zeta: PolyMap,
    lam: PolyMap,
    triv: Optional[Tuple[PolyMap, PolyMap]] = None,
    mode: str = scalars.RATIONAL,
) -> DiffBundle:
    """Assemble a DiffBundle; derives q from the trivialization.

    In display normal form R and E_2 share the coordinates (x, a, b), and
    the inverse of kappa is the identity between them.  Lift coherence
    lambda;ell = lambda;T(lambda) forces a constant fibre-tangent block M
    of the displayed lift to satisfy M^2 = M, so an invertible M is 1: a
    lift that would need another constant inverse fails
    lambda-lift-coherence anyway.  No axiom is assumed here: run
    verify_bundle on the result, whose universality rows check kappa.
    """
    scalars.check_mode(mode)
    if triv is None:
        total = base + fibre
        t = identity_map(total, mode)
        t_inv = identity_map(total, mode)
    else:
        t, t_inv = triv
        total = t.dom
        if t.cod != base + fibre or t_inv.dom != base + fibre or t_inv.cod != total:
            raise DimensionMismatch("trivialization must map total <-> base+fibre")
        if not (
            polymap_compose(t, t_inv) == identity_map(total, mode)
            and polymap_compose(t_inv, t) == identity_map(base + fibre, mode)
        ):
            raise PreconditionFailure("triv not two-sided inverse")
    q = polymap_compose(t, polymap_proj(base + fibre, 0, base, mode))
    e2 = base + 2 * fibre
    if sigma.dom != e2 or sigma.cod != total:
        raise DimensionMismatch(f"sigma must map E_2 = {e2} to total {total}")
    if zeta.dom != base or zeta.cod != total:
        raise DimensionMismatch(f"zeta must map base {base} to total {total}")
    if lam.dom != total or lam.cod != 2 * total:
        raise DimensionMismatch(f"lambda must map total {total} to T(total) {2 * total}")
    for f in (sigma, zeta, lam, t, t_inv):
        if f.mode != mode:
            raise DimensionMismatch("bundle data must share one scalar mode")
    return DiffBundle(
        base=base,
        fibre=fibre,
        total=total,
        q=q,
        sigma=sigma,
        zeta=zeta,
        lam=lam,
        triv=t,
        triv_inv=t_inv,
        mode=mode,
    )


@memo_by_input
def display_blocks(b: DiffBundle):
    """(sigma_fib, zeta_fib, lam_tan, lam_pt): sigma, zeta and lift blocks over (x, a)."""
    m, k = b.base, b.fibre
    sigma_fib = polymap_compose(
        polymap_compose(b.sigma, b.triv), polymap_proj(m + k, m, m + k, b.mode)
    )
    # the lift in display coordinates: (x, a) |-> (dx, x, da, a)
    lam_display = polymap_compose(b.triv_inv, polymap_compose(b.lam, tangent_triv(b)))
    lam_tan = PolyMap(m + k, k, lam_display.components[2 * m : 2 * m + k], b.mode)
    lam_pt = PolyMap(m + k, k, lam_display.components[2 * m + k :], b.mode)
    return sigma_fib, zeta_fibre(b), lam_tan, lam_pt


def display_bundle(
    m: int, k: int, sigma_fib: PolyMap, zeta_fib: PolyMap, lam_tan: PolyMap, lam_pt: PolyMap
) -> DiffBundle:
    """The inverse of display_blocks: the bundle on (x, a) with the identity trivialization.

    sigma = (x, sigma_fib), zeta = (1, zeta_fib), lambda = (0, lam_tan, x, lam_pt).
    """
    mode, total = sigma_fib.mode, m + k
    sigma = polymap_pair(polymap_proj(m + 2 * k, 0, m, mode), sigma_fib)
    zeta = polymap_pair(identity_map(m, mode), zeta_fib)
    x = polymap_proj(total, 0, m, mode)
    lam = polymap_pair(zero_map(total, m, mode), lam_tan, x, lam_pt)
    return make_bundle(m, k, sigma, zeta, lam, None, mode)


def trivial_bundle(m: int, mode: str = scalars.RATIONAL) -> DiffBundle:
    """The bundle (1_M, 1_M, 1_M, 0-lift) with empty fibre."""
    return standard_bundle(m, 0, mode)


@lru_cache(maxsize=None)
def standard_bundle(m: int, k: int, mode: str = scalars.RATIONAL) -> DiffBundle:
    """Base m, fibre k, total m+k, fibrewise addition, lift (x,a) |-> (0,a,x,0)."""
    e2, total = m + 2 * k, m + k
    a = polymap_proj(e2, m, m + k, mode)
    b = polymap_proj(e2, m + k, e2, mode)
    fibre = polymap_proj(total, m, total, mode)
    return display_bundle(
        m, k, polymap_add(a, b), zero_map(m, k, mode), fibre, zero_map(total, k, mode)
    )


@lru_cache(maxsize=None)
def tangent_bundle_of(m: int, mode: str = scalars.RATIONAL) -> DiffBundle:
    """(p : T(M) -> M, +, 0, ell) with the (u, x) -> (x, u) trivialization."""
    swap = block_swap(0, m, m, 0, mode)
    x, a, b = (polymap_proj(3 * m, i * m, (i + 1) * m, mode) for i in range(3))
    sigma = polymap_pair(polymap_add(a, b), x)
    return make_bundle(
        m,
        m,
        sigma,
        tangent_zero(m, mode),
        cdc_ell(m, mode),
        (swap, swap),
        mode,
    )


def verify_bundle(b: DiffBundle) -> CheckSet:
    """One check per axiom of the lift definition, plus witness identities."""
    checks = CheckSet()
    m, e = b.base, b.total
    ident_e = identity_map(e, b.mode)
    pi0, pi1 = bundle_pi(b, 0), bundle_pi(b, 1)
    p_e = point_proj(e, b.mode)
    zero_e = tangent_zero(e, b.mode)
    zero_m = tangent_zero(m, b.mode)

    eq = checks.equality

    eq("triv-left-inverse", polymap_compose(b.triv, b.triv_inv), ident_e)
    eq(
        "triv-right-inverse",
        polymap_compose(b.triv_inv, b.triv),
        identity_map(m + b.fibre, b.mode),
    )
    eq(
        "triv-projection",
        polymap_compose(b.triv, polymap_proj(m + b.fibre, 0, m, b.mode)),
        b.q,
    )
    eq("sigma-over-base", polymap_compose(b.sigma, b.q), polymap_compose(pi0, b.q))
    eq("sigma-base-agreement", polymap_compose(pi0, b.q), polymap_compose(pi1, b.q))
    eq("zeta-section", polymap_compose(b.zeta, b.q), identity_map(m, b.mode))
    monoid_checks(
        checks,
        "sigma",
        "",
        polymap_compose,
        lambda u, v: pair_into_e2(b, u, v),
        b.sigma,
        ident_e,
        polymap_compose(b.q, b.zeta),
        (pi0, pi1),
        [bundle_pi(b, i, 3) for i in range(3)],
    )
    eq(
        "lambda-zero-square",
        polymap_compose(b.lam, cdc_T(b.q)),
        polymap_compose(b.q, zero_m),
    )
    with checks.guard("lambda-additive-over-zero"):
        eq(
            "lambda-additive-over-zero",
            polymap_compose(b.sigma, b.lam),
            t_fibre_sum(b, polymap_compose(pi0, b.lam), polymap_compose(pi1, b.lam)),
        )
    eq(
        "lambda-zero-over-zero",
        polymap_compose(b.zeta, b.lam),
        polymap_compose(zero_m, cdc_T(b.zeta)),
    )
    eq(
        "lambda-zeta-square",
        polymap_compose(b.lam, p_e),
        polymap_compose(b.q, b.zeta),
    )
    with checks.guard("lambda-additive-over-zeta"):
        eq(
            "lambda-additive-over-zeta",
            polymap_compose(b.sigma, b.lam),
            tangent_sum(e, polymap_compose(pi0, b.lam), polymap_compose(pi1, b.lam)),
        )
    eq(
        "lambda-zero-over-zeta",
        polymap_compose(b.zeta, b.lam),
        polymap_compose(b.zeta, zero_e),
    )
    eq(
        "lambda-lift-coherence",
        polymap_compose(b.lam, cdc_ell(e, b.mode)),
        polymap_compose(b.lam, cdc_T(b.lam)),
    )
    with checks.guard("universality"):
        # R shares E_2's coordinates, so kappa = 1; both kappa rows stay, as FAULT_ROWS pins both names
        mu = mu_map(b)
        universality_checks(
            checks, polymap_compose, mu, lift_witness(b), polymap_compose(pi0, b.q),
            identity_map(b.e2_dim, b.mode), [("universality-left", ""), ("universality-right", "")],
            "universality-cone", ("kappa over T(E)", "kappa over the base", "mu as the leg into T(E)"),
        )
        eq("mu-projection", polymap_compose(mu, p_e), pi1)
        section = pair_into_e2(b, ident_e, polymap_compose(b.q, b.zeta))
        eq("mu-section", polymap_compose(section, mu), b.lam)
    return checks


# ---------------------------------------------------------------------------
# Morphisms: squares, additivity, linearity


def is_bundle_morphism(mor: BundleMor, b: DiffBundle, b2: DiffBundle) -> bool:
    return polymap_compose(mor.f, b2.q) == polymap_compose(b.q, mor.g)


def _require_morphism(mor: BundleMor, b: DiffBundle, b2: DiffBundle):
    if mor.f.dom != b.total or mor.f.cod != b2.total:
        raise NotABundleMorphism("total map has wrong endpoints")
    if mor.g.dom != b.base or mor.g.cod != b2.base:
        raise NotABundleMorphism("base map has wrong endpoints")
    if not is_bundle_morphism(mor, b, b2):
        raise NotABundleMorphism("square f;q' = q;g fails")


def is_linear(mor: BundleMor, b: DiffBundle, b2: DiffBundle) -> bool:
    """fq' = qg and f;lambda' = lambda;T(f)."""
    _require_morphism(mor, b, b2)
    return polymap_compose(mor.f, b2.lam) == polymap_compose(b.lam, cdc_T(mor.f))


def _e2_image(mor: BundleMor, b: DiffBundle, b2: DiffBundle) -> PolyMap:
    """<pi0 f, pi1 f> : E_2 -> E'_2."""
    return pair_into_e2(
        b2, polymap_compose(bundle_pi(b, 0), mor.f), polymap_compose(bundle_pi(b, 1), mor.f)
    )


def is_additive(mor: BundleMor, b: DiffBundle, b2: DiffBundle) -> bool:
    """Preserves sigma and zeta over g."""
    _require_morphism(mor, b, b2)
    adds = polymap_compose(b.sigma, mor.f) == polymap_compose(_e2_image(mor, b, b2), b2.sigma)
    zeros = polymap_compose(b.zeta, mor.f) == polymap_compose(mor.g, b2.zeta)
    return adds and zeros


def mu_characterization(mor: BundleMor, b: DiffBundle, b2: DiffBundle) -> bool:
    """mu;T(f) = <pi0 f, pi1 f> mu' together with zeta preservation."""
    _require_morphism(mor, b, b2)
    main = polymap_compose(mu_map(b), cdc_T(mor.f)) == polymap_compose(
        _e2_image(mor, b, b2), mu_map(b2)
    )
    zeros = polymap_compose(b.zeta, mor.f) == polymap_compose(mor.g, b2.zeta)
    return main and zeros


# ---------------------------------------------------------------------------
# Constructions: tangent, pullback, Whitney sum


def tangent_of_bundle(b: DiffBundle) -> DiffBundle:
    """T of a bundle: (T(q), T(sigma), T(zeta), T(lambda) c), transported."""
    m, k = b.base, b.fibre
    mode = b.mode
    # E'_2 carries (dx, x, da, a, db, b); swap into T(E_2) order
    # (dx, da, x, a, db, b), then (dx, da, db, x, a, b), before T(sigma)
    perm = polymap_compose(block_swap(m, m, k, 3 * k, mode), block_swap(m + k, m + k, k, k, mode))
    sigma2 = polymap_compose(perm, cdc_T(b.sigma))
    zeta2 = cdc_T(b.zeta)
    lam2 = polymap_compose(cdc_T(b.lam), cdc_flip(b.total, mode))
    triv2 = (tangent_triv(b), tangent_triv_inv(b))
    return make_bundle(2 * m, 2 * k, sigma2, zeta2, lam2, triv2, mode)


def bundle_projection_mor(b: DiffBundle) -> BundleMor:
    """(p_E, p_M) : T(bundle) -> bundle."""
    return BundleMor(point_proj(b.total, b.mode), point_proj(b.base, b.mode))


def bundle_zero_mor(b: DiffBundle) -> BundleMor:
    """(0_E, 0_M) : bundle -> T(bundle)."""
    return BundleMor(tangent_zero(b.total, b.mode), tangent_zero(b.base, b.mode))


@memo_by_input
def zeta_fibre(b: DiffBundle) -> PolyMap:
    """The fibre part of the zero section, M -> F, in display coordinates."""
    n = b.base + b.fibre
    return polymap_compose(
        b.zeta, polymap_compose(b.triv, polymap_proj(n, b.base, n, b.mode))
    )


def pullback_bundle(f: PolyMap, b: DiffBundle) -> DiffBundle:
    """f*(bundle) over the domain of f, total realized as (x', a)."""
    if f.cod != b.base:
        raise DimensionMismatch("pullback map must land in the base")
    if f.mode != b.mode:
        raise DimensionMismatch("pullback map must share the scalar mode")
    k, mode = b.fibre, b.mode
    sigma_fib, zeta_fib, lam_tan, lam_pt = display_blocks(b)
    # each block of b, read at (f(x'), a, ...)
    fx2 = polymap_product(f, identity_map(2 * k, mode))
    fx1 = polymap_product(f, identity_map(k, mode))
    return display_bundle(
        f.dom,
        k,
        polymap_compose(fx2, sigma_fib),
        polymap_compose(f, zeta_fib),
        polymap_compose(fx1, lam_tan),
        polymap_compose(fx1, lam_pt),
    )


def pullback_mor(f: PolyMap, b: DiffBundle, pulled: DiffBundle) -> BundleMor:
    """The Cartesian projection (f*_E, f) : f*(bundle) -> bundle."""
    fx1 = polymap_product(f, identity_map(pulled.fibre, pulled.mode))
    return BundleMor(polymap_compose(fx1, b.triv_inv), f)


def whitney_sum(b1: DiffBundle, b2: DiffBundle) -> DiffBundle:
    """Fibre product over a shared base: fibre coordinates concatenated."""
    if b1.base != b2.base:
        raise DimensionMismatch("base-mismatch: Whitney sum needs a common base")
    if b1.mode != b2.mode:
        raise DimensionMismatch("Whitney sum needs a common scalar mode")
    m, k, mode = b1.base, b1.fibre + b2.fibre, b1.mode
    e2, total = m + 2 * k, m + k
    blocks = []
    # summand i reads (x, a_i, c_i) off (x, a_1, a_2, c_1, c_2), and (x, a_i) off (x, a_1, a_2)
    for b, lo, hi in ((b1, m, m + b1.fibre), (b2, m + b1.fibre, total)):
        s, z, lt, lp = display_blocks(b)
        over = coordinate_map(e2, (*range(m), *range(lo, hi), *range(lo + k, hi + k)), mode)
        at = coordinate_map(total, (*range(m), *range(lo, hi)), mode)
        blocks.append((polymap_compose(over, s), z, polymap_compose(at, lt), polymap_compose(at, lp)))
    return display_bundle(m, k, *(polymap_pair(u, v) for u, v in zip(*blocks)))


def whitney_proj(bsum: DiffBundle, b1: DiffBundle, b2: DiffBundle, which: int) -> BundleMor:
    """(pi_i, 1_M) out of the Whitney sum."""
    m, k1, total, mode = bsum.base, b1.fibre, bsum.total, bsum.mode
    lo, hi, target = (m, m + k1, b1) if which == 0 else (m + k1, total, b2)
    display = coordinate_map(total, (*range(m), *range(lo, hi)), mode)
    return BundleMor(polymap_compose(display, target.triv_inv), identity_map(m, mode))


def whitney_pair(
    mor1: BundleMor, mor2: BundleMor, b1: DiffBundle, b2: DiffBundle, bsum: DiffBundle
) -> BundleMor:
    """<mor1, mor2> into the sum, for morphisms over a shared base map."""
    if mor1.g != mor2.g:
        raise PreconditionFailure("Whitney pairing needs a shared base map")
    f = _display_pair(bsum.base, polymap_compose(mor1.f, b1.triv), polymap_compose(mor2.f, b2.triv))
    return BundleMor(f, mor1.g)


# ---------------------------------------------------------------------------
# Bundle description files


def parse_bundle_text(text: str) -> DiffBundle:
    """Read a bundle from INI text with a [bundle] section.

    Required fields: base, fibre, sigma, zeta, lambda.  Optional: mode
    (default rational), triv and triv_inv (default identity layout).
    Maps use the component grammar of the expression parser.
    """
    import configparser

    from .parser import MAX_VARIABLES, bounded_int, parse_polymap

    # no interpolation: '%' is an ordinary character of a map
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise PreconditionFailure(f"bundle file is not valid INI: {exc}".replace("\n", " ")) from None
    if "bundle" not in cfg:
        raise PreconditionFailure("missing [bundle] section")
    sec = cfg["bundle"]
    for key in ("base", "fibre", "sigma", "zeta", "lambda"):
        if key not in sec:
            raise PreconditionFailure(f"[bundle] is missing the key {key!r}")
    mode = sec.get("mode", scalars.RATIONAL).strip()
    scalars.check_mode(mode)
    sizes = {}
    for key in ("base", "fibre"):
        value = sec[key].strip()
        if not (value.isascii() and value.isdigit()):
            raise PreconditionFailure(f"{key} must be a non-negative integer, got {value!r}")
        sizes[key] = bounded_int(value, sys.maxsize)  # a longer number is refused unread
        if sizes[key] is None:
            raise PreconditionFailure(f"{key} alone is more than base + 2 * fibre may be ({MAX_VARIABLES})")
    base, fibre = sizes["base"], sizes["fibre"]
    if base + 2 * fibre > MAX_VARIABLES:  # sigma's domain, the widest map read
        raise PreconditionFailure(f"base + 2 * fibre must be at most {MAX_VARIABLES}, got {base + 2 * fibre}")
    total = base + fibre
    if ("triv" in sec) != ("triv_inv" in sec):
        raise PreconditionFailure("triv and triv_inv must be given together")
    maps = {}
    for key, dom in (("triv", total), ("triv_inv", total), ("sigma", base + 2 * fibre), ("zeta", base),
                     ("lambda", total)):
        try:
            maps[key] = parse_polymap(sec[key], dom, mode) if key in sec else None
        except PolyParseError as exc:
            exc.args = (f"{key}: {exc}",)  # the position stays on exc.pos
            raise
    triv = None if maps["triv"] is None else (maps["triv"], maps["triv_inv"])
    return make_bundle(base, fibre, maps["sigma"], maps["zeta"], maps["lambda"], triv, mode)


def load_bundle(path: str) -> DiffBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_bundle_text(fh.read())
