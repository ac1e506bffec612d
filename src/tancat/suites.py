"""Named verification suites over the polynomial models.

Every suite runs a fixed list of named checks under one SuiteParams,
aggregating repeated random instances under one row per check name.  All
randomness comes from ``params.draws``, so reports are reproducible byte
for byte (modulo wall time) for fixed parameters.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from random import Random
from typing import Callable, Dict, Optional, Tuple

from . import scalars
from .bundles import (
    BundleMor,
    DiffBundle,
    assemble_tangent,
    bracket,
    bracket_legs,
    bundle_pi,
    bundle_projection_mor,
    bundle_zero_mor,
    display_blocks,
    display_bundle,
    fibre_sum,
    is_additive,
    is_linear,
    mu_characterization,
    mu_map,
    pullback_bundle,
    pullback_mor,
    standard_bundle,
    t_fibre_sum,
    tangent_bundle_of,
    tangent_of_bundle,
    trivial_bundle,
    verify_bundle,
    whitney_pair,
    whitney_proj,
    whitney_sum,
    zeta_fibre,
)
from .cdc import (
    PolyCDModel,
    PolyTangentModel,
    cdc_D,
    cdc_T,
    cdc_flip,
    point_proj,
    tangent_sum,
    tangent_zero,
)
from .diffobj import (
    bundle_from_diffobj,
    canonical_diffobj,
    check_cds,
    derived_D,
    diffobj_from_bundle,
    verify_diffobj,
)
from .errors import DimensionMismatch, PreconditionFailure
from .fibration import (
    FIBRE_PARAMS,
    SimpleCDModel,
    SimpleMor,
    SimpleObj,
    simple_D,
    simple_compose,
    simple_identity,
    vertical_T,
    vertical_tangent_map,
    verify_fibre_axioms,
)
from .model import monad_mult, tangent_axioms_checks
from .numeric import dual_eval, fd_check
from .poly import (
    Poly,
    PolyMap,
    block_swap,
    constant_map,
    coordinate_map,
    eval_polymap,
    identity_map,
    linear_map,
    poly_add,
    poly_mul,
    poly_shift_vars,
    polymap_add,
    polymap_compose,
    polymap_pair,
    polymap_proj,
    random_polymap,
    zero_map,
)
from .params import SuiteParams, draws
from .report import PASS, CheckSet, Report

# each injectable defect, and the suites whose checks it affects
FAULT_SUITES: Dict[str, Tuple[str, ...]] = {
    "identity-flip": ("tangent-axioms",),
    "dropped-zero-block": ("tangent-axioms",),
    "corrupted-lambda": ("bundle", "bracket-laws"),
}
FAULTS = tuple(FAULT_SUITES)


# ---------------------------------------------------------------------------
# Fault injection


class IdentityFlipModel(PolyTangentModel):
    """Fault: the flip on second tangents is replaced by the identity."""

    def flip(self, m: int) -> PolyMap:
        return identity_map(4 * m, self.mode)


class DroppedZeroModel(PolyTangentModel):
    """Fault: the lift forgets to zero its point block, (u,x) |-> (u,0,u,x)."""

    def ell(self, m: int) -> PolyMap:
        return coordinate_map(2 * m, (*range(m), *(None,) * m, *range(2 * m)), self.mode)


# the tangent-axioms model under each fault that affects it, and without one
_TANGENT_MODELS = {
    None: PolyTangentModel,
    "identity-flip": IdentityFlipModel,
    "dropped-zero-block": DroppedZeroModel,
}


# ---------------------------------------------------------------------------
# Cartesian differential axioms, generic over the CD model


def cdc_axioms_checks(model, params: SuiteParams, suite_name: str) -> CheckSet:
    """CD1-CD7 (Blute, Cockett & Seely, TAC 2009) for the differential model.D.

    The CD model supplies D, compose, n-ary pair/product/proj, add, zero,
    identity, a ``unit`` object that points start from, and the seeded draws
    random_obj(rng), random_mor(x, y, rng, max_degree) and random_point(x, rng)
    (see PolyCDModel, SimpleCDModel).  Morphisms print themselves through ``str``.
    """
    checks = CheckSet()
    D = model.D
    deg = params.max_degree

    eq = checks.equality

    for i, rng in draws(suite_name, "cd", params):
        m = model.random_obj(rng)
        n = model.random_obj(rng)
        pdim = model.random_obj(rng)
        f = model.random_mor(m, n, rng, deg)
        g = model.random_mor(m, n, rng, deg)
        h = model.random_mor(n, pdim, rng, deg)
        desc = (f"instance {i}: f = ", f)
        df = D(f)
        tm = model.product(m, m)
        pi_u, pi_x = model.proj((m, m), 0), model.proj((m, m), 1)

        eq("cd1-additive", D(model.add(f, g)), model.add(df, D(g)), desc)
        eq("cd1-zero", D(model.zero(m, n)), model.zero(tm, n), f"dims ({m},{n})")

        a, b, x = (model.proj((m, m, m), k) for k in range(3))
        lhs = model.compose(model.pair(model.add(a, b), x), df)
        rhs = model.add(
            model.compose(model.pair(a, x), df),
            model.compose(model.pair(b, x), df),
        )
        eq("cd2-additive", lhs, rhs, desc)
        zero_section = model.pair(model.zero(m, m), model.identity(m))
        eq("cd2-zero", model.compose(zero_section, df), model.zero(m, n), desc)
        ca, cb, cx = (model.random_point(m, rng) for _ in range(3))
        lhs_c = model.compose(model.pair(model.add(ca, cb), cx), df)
        rhs_c = model.add(
            model.compose(model.pair(ca, cx), df),
            model.compose(model.pair(cb, cx), df),
        )
        eq("cd2-additive-points", lhs_c, rhs_c, desc)

        eq("cd3-identity", D(model.identity(m)), pi_u, f"dim {m}")
        mn = model.product(m, n)
        first = model.proj((mn, mn), 0)
        for k, which in ((0, "first"), (1, "second")):
            pi = model.proj((m, n), k)
            eq(
                "cd3-projection",
                D(pi),
                model.compose(first, pi),
                f"dims ({m},{n}), {which} factor",
            )

        eq("cd4-pairing", D(model.pair(f, g)), model.pair(df, D(g)), desc)

        chain = model.compose(model.pair(df, model.compose(pi_x, f)), D(h))
        eq("cd5-chain", D(model.compose(f, h)), chain, (*desc, ", h = ", h))

        ddf = D(df)
        zero_u = model.zero(tm, m)
        inject = model.pair(pi_u, zero_u, zero_u, pi_x)
        eq("cd6-lift", model.compose(inject, ddf), df, desc)
        zero0 = model.zero(model.unit, m)
        c6 = model.pair(ca, zero0, zero0, cx)
        eq(
            "cd6-lift-points",
            model.compose(c6, ddf),
            model.compose(model.pair(ca, cx), df),
            desc,
        )

        ex = model.pair(*(model.proj((m, m, m, m), k) for k in (0, 2, 1, 3)))
        eq("cd7-symmetry", model.compose(ex, ddf), ddf, desc)
        cc = model.random_point(m, rng)
        c7 = model.pair(ca, cb, cc, cx)
        eq(
            "cd7-symmetry-points",
            model.compose(c7, ddf),
            model.compose(model.compose(c7, ex), ddf),
            desc,
        )
    return checks


def _suite_derived_differential(params: SuiteParams) -> CheckSet:
    checks = CheckSet()
    dims, per_cell = params.max_dim, params.instances
    # the full (dom, cod) grid, instances maps per cell, all from one stream
    for k, rng in draws("derived-differential", "agreement", params, dims * dims * per_cell):
        cell, i = divmod(k, per_cell)
        m, n = (d + 1 for d in divmod(cell, dims))
        f = random_polymap(m, n, params.max_degree, rng, params.mode)
        checks.equality(
            "derived-equals-direct", derived_D(f), cdc_D(f), (f"dom {m}, cod {n}, instance {i}: f = ", f)
        )
    model = PolyCDModel(derived_D, params.mode, params.max_dim)
    checks.absorb(cdc_axioms_checks(model, params, "derived-differential"))
    return checks


# ---------------------------------------------------------------------------
# Bundle constructors


def _bundle_families(mode: str, fault: Optional[str] = None) -> Dict[str, DiffBundle]:
    """Every bundle the suites check, by label.

    The corrupted-lambda fault gives standard-1-1 a lift that leaks the fibre
    value, (x, a) |-> (0, a, x, a).
    """
    std = standard_bundle(1, 1, mode)
    if fault == "corrupted-lambda":
        sigma_fib, zeta_fib, lam_tan, _ = display_blocks(std)
        std = display_bundle(1, 1, sigma_fib, zeta_fib, lam_tan, lam_tan)
    return {
        "trivial-1": trivial_bundle(1, mode),
        "trivial-2": trivial_bundle(2, mode),
        "standard-1-1": std,
        "standard-2-1": standard_bundle(2, 1, mode),
        "standard-1-2": standard_bundle(1, 2, mode),
        "tangent-1": tangent_bundle_of(1, mode),
        "tangent-2": tangent_bundle_of(2, mode),
    }


def _fibre_one(fams: Dict[str, DiffBundle]):
    """standard-1-1, standard-2-1 and tangent-1, the families that random instances cycle over."""
    return [(label, b) for label, b in fams.items() if b.fibre == 1]


def _first_failure(checks: CheckSet) -> str:
    for c in checks.checks:
        if c.status != PASS:
            return f"; first failing check {c.name}: {c.counterexample}"
    return ""


def _refuses(call: Callable[[], object], error: type) -> bool:
    """True when call() raises error."""
    try:
        call()
    except error:
        return True
    return False


def _point_fibre_checks(b: DiffBundle) -> CheckSet:
    """verify_diffobj of the fibre of b over the point (1, 2) of its 2-dimensional base."""
    mode = b.mode
    pt = constant_map(0, [scalars.coerce(mode, 1), scalars.coerce(mode, 2)], mode)
    return verify_diffobj(diffobj_from_bundle(pullback_bundle(pt, b)))


def _suite_bundle(params: SuiteParams) -> CheckSet:
    mode = params.mode
    checks = CheckSet()
    fams = _bundle_families(mode, params.fault)
    # verify_bundle's rows depend on the bundle alone, and equal bundles recur: a
    # pullback of a fibre-1 family is the standard bundle over f's domain, and a
    # sum with trivial-1 is the other summand
    verified: Dict[DiffBundle, CheckSet] = {}

    def verify(b: DiffBundle) -> CheckSet:
        if b not in verified:
            verified[b] = verify_bundle(b)
        return verified[b]

    for label, b in fams.items():
        checks.absorb(verify(b), prefix=f"{label}:")
        tb = tangent_of_bundle(b)
        checks.absorb(verify(tb), prefix=f"T[{label}]:")
        with checks.guard("tangent-projection-linear"):
            checks.condition(
                "tangent-projection-linear", is_linear(bundle_projection_mor(b), tb, b), label
            )
        with checks.guard("tangent-zero-linear"):
            checks.condition("tangent-zero-linear", is_linear(bundle_zero_mor(b), b, tb), label)

    same = tangent_of_bundle(fams["trivial-1"]) == fams["trivial-2"]
    checks.condition(
        "tangent-of-trivial", same, "T of the empty-fibre bundle must again be empty-fibre"
    )

    targets = _fibre_one(fams)
    for i, rng in draws("bundle", "pullback", params):
        label, b = targets[i % len(targets)]
        xdim = rng.randint(1, min(2, params.max_dim))
        fmap = random_polymap(xdim, b.base, params.max_degree, rng, mode)
        detail = (f"instance {i} over {label}, f = ", fmap)
        with checks.guard("pullback-verify"):
            pb = pullback_bundle(fmap, b)
            rows = verify(pb)
            checks.condition("pullback-verify", rows.all_passed, (*detail, _first_failure(rows)))
            mor = pullback_mor(fmap, b, pb)
            checks.condition("pullback-cartesian-linear", is_linear(mor, pb, b), detail)

    b = fams["standard-2-1"]
    same = pullback_bundle(identity_map(2, mode), b) == b
    checks.condition("pullback-along-identity", same, "pullback along 1 must reproduce the bundle")

    with checks.guard("pullback-point-diffobj"):
        rows = _point_fibre_checks(b)
        checks.condition(
            "pullback-point-diffobj",
            rows.all_passed,
            "fibre over a point" + _first_failure(rows),
        )

    base1 = [(label, bb) for label, bb in fams.items() if bb.base == 1]
    for l1, b1 in base1:
        for l2, b2 in base1:
            detail = f"{l1} (+) {l2}"
            with checks.guard("whitney-verify"):
                bs = whitney_sum(b1, b2)
                rows = verify(bs)
                checks.condition("whitney-verify", rows.all_passed, detail + _first_failure(rows))
                checks.condition(
                    "whitney-fibre-dimension", bs.fibre == b1.fibre + b2.fibre, detail
                )
                pr0 = whitney_proj(bs, b1, b2, 0)
                pr1 = whitney_proj(bs, b1, b2, 1)
                checks.condition(
                    "whitney-projection-linear",
                    is_linear(pr0, bs, b1) and is_linear(pr1, bs, b2),
                    detail,
                )
                paired = whitney_pair(pr0, pr1, b1, b2, bs)
                checks.equality(
                    "whitney-pairing-recovers",
                    paired.f,
                    identity_map(bs.total, mode),
                    detail,
                )

    same = whitney_sum(fams["standard-1-1"], fams["trivial-1"]) == fams["standard-1-1"]
    checks.condition("whitney-unit", same, "sum with the empty-fibre bundle changes nothing")

    refused = _refuses(lambda: whitney_sum(fams["standard-1-1"], fams["standard-2-1"]), DimensionMismatch)
    checks.condition("whitney-base-mismatch-rejected", refused, "sums over different bases must be refused")
    return checks


# ---------------------------------------------------------------------------
# The bracket and its laws


def _suite_bracket_laws(params: SuiteParams) -> CheckSet:
    mode, deg = params.mode, params.max_degree
    checks = CheckSet()
    bundles = _fibre_one(_bundle_families(mode, params.fault))
    tangents = {label: tangent_of_bundle(b) for label, b in bundles}

    eq = checks.equality

    for label, b in bundles:
        e = b.total
        with checks.guard("bracket-of-zero"):
            eq(
                "bracket-of-zero",
                bracket(tangent_zero(e, mode), b),
                polymap_compose(b.q, b.zeta),
                label,
            )
        with checks.guard("bracket-of-lambda"):
            eq("bracket-of-lambda", bracket(b.lam, b), identity_map(e, mode), label)
        with checks.guard("bracket-of-mu"):
            eq("bracket-of-mu", bracket(mu_map(b), b), bundle_pi(b, 0), label)
        eq(
            "zeta-equalizes",
            polymap_compose(b.zeta, tangent_zero(e, mode)),
            polymap_compose(b.zeta, b.lam),
            label,
        )

    for i, rng in draws("bracket-laws", "instances", params):
        label, b = bundles[i % len(bundles)]
        e, m, k = b.total, b.base, b.fibre
        tb = tangents[label]
        xdim = rng.randint(1, min(2, params.max_dim))

        def rand(cod, dom=xdim):
            return random_polymap(dom, cod, deg, rng, mode)

        xmap = rand(m)
        zero_dx = zero_map(xdim, m, mode)
        f = assemble_tangent(b, zero_dx, xmap, rand(k), rand(k))
        desc = f"{label}, instance {i}"
        with checks.guard("bracket-defining"):
            bf = bracket(f, b)
            _, _, point_zero = bracket_legs(b)
            recon = t_fibre_sum(b, polymap_compose(bf, b.lam), polymap_compose(f, point_zero))
            eq("bracket-defining", recon, f, desc)

            wdim = rng.randint(1, min(2, params.max_dim))
            kmap = rand(xdim, wdim)
            eq(
                "bracket-precompose",
                polymap_compose(kmap, bf),
                bracket(polymap_compose(kmap, f), b),
                desc,
            )

            unit = trivial_bundle(m, mode)
            eq(
                "bracket-postcompose-linear",
                polymap_compose(bf, b.q),
                bracket(polymap_compose(f, cdc_T(b.q)), unit),
                desc + ", along (q, 1)",
            )
            eq(
                "bracket-postcompose-zero",
                polymap_compose(bf, tangent_zero(e, mode)),
                bracket(polymap_compose(f, cdc_T(tangent_zero(e, mode))), tb),
                desc + ", along (0_E, 0_M)",
            )

            eq(
                "bracket-over-base",
                polymap_compose(bf, b.q),
                polymap_compose(f, polymap_compose(cdc_T(b.q), point_proj(m, mode))),
                desc,
            )

            g = assemble_tangent(b, zero_dx, xmap, rand(k), rand(k))
            bg = bracket(g, b)
            eq(
                "bracket-sigma",
                fibre_sum(b, bf, bg),
                bracket(t_fibre_sum(b, f, g), b),
                desc,
            )

            ashared = rand(k)
            f2 = assemble_tangent(b, zero_dx, xmap, rand(k), ashared)
            g2 = assemble_tangent(b, zero_dx, xmap, rand(k), ashared)
            eq(
                "bracket-plus",
                fibre_sum(b, bracket(f2, b), bracket(g2, b)),
                bracket(tangent_sum(e, f2, g2), b),
                desc,
            )

            eq(
                "bracket-tangent",
                cdc_T(bf),
                bracket(polymap_compose(cdc_T(f), cdc_flip(e, mode)), tb),
                desc,
            )

            f3 = assemble_tangent(
                b, zero_dx, xmap, rand(k), polymap_compose(xmap, zeta_fibre(b))
            )
            eq(
                "bracket-section-form",
                polymap_compose(bracket(f3, b), b.lam),
                f3,
                desc + ", member with zeta point part",
            )

        y = polymap_compose(xmap, b.zeta)
        hyp = polymap_compose(y, tangent_zero(e, mode)) == polymap_compose(y, b.lam)
        concl = y == polymap_compose(polymap_compose(y, b.q), b.zeta)
        checks.condition("zero-lambda-forces-section", (not hyp) or concl, desc)
    return checks


# ---------------------------------------------------------------------------
# Interchange of fibre addition with tangent addition


def _suite_interchange(params: SuiteParams) -> CheckSet:
    mode = params.mode
    checks = CheckSet()
    bundles = _fibre_one(_bundle_families(mode))
    for i, rng in draws("interchange", "instances", params):
        _, b = bundles[i % len(bundles)]
        m, k, e = b.base, b.fibre, b.total
        xdim = rng.randint(1, min(2, params.max_dim))

        def rand(cod):
            return random_polymap(xdim, cod, params.max_degree, rng, mode)

        xmap = rand(m)
        dx12, dx34 = rand(m), rand(m)
        a13, a24 = rand(k), rand(k)
        da = [rand(k) for _ in range(4)]
        v1 = assemble_tangent(b, dx12, xmap, da[0], a13)
        v2 = assemble_tangent(b, dx12, xmap, da[1], a24)
        v3 = assemble_tangent(b, dx34, xmap, da[2], a13)
        v4 = assemble_tangent(b, dx34, xmap, da[3], a24)
        desc = f"instance {i}: base {m}, fibre {k}"
        with checks.guard("interchange"):
            lhs = tangent_sum(e, t_fibre_sum(b, v1, v2), t_fibre_sum(b, v3, v4))
            rhs = t_fibre_sum(b, tangent_sum(e, v1, v3), tangent_sum(e, v2, v4))
            checks.equality("interchange", lhs, rhs, desc)
        with checks.guard("interchange-shared-zero"):
            azero = polymap_compose(xmap, zeta_fibre(b))
            zero_dx = zero_map(xdim, m, mode)
            w1 = assemble_tangent(b, zero_dx, xmap, da[0], azero)
            w2 = assemble_tangent(b, zero_dx, xmap, da[1], azero)
            checks.equality(
                "interchange-shared-zero", t_fibre_sum(b, w1, w2), tangent_sum(e, w1, w2), desc
            )
    return checks


# ---------------------------------------------------------------------------
# Linearity of the constructor morphisms and the two characterizations


def _linear_fibre_map(m: int, k1: int, k2: int, rng, deg: int, mode: str) -> PolyMap:
    """F(x, a) = C(x) a with polynomial coefficients, fibrewise linear."""
    dom = m + k1
    comps = []
    for _ in range(k2):
        acc = Poly.zero(dom, mode)
        for j in range(k1):
            cpoly = random_polymap(m, 1, deg, rng, mode).components[0]
            wide = poly_shift_vars(cpoly, 0, dom)
            acc = poly_add(acc, poly_mul(wide, Poly.variable(dom, m + j, mode)))
        comps.append(acc)
    return PolyMap(dom, k2, tuple(comps), mode)


def _suite_linearity(params: SuiteParams) -> CheckSet:
    mode, deg = params.mode, params.max_degree
    checks = CheckSet()
    fams = _bundle_families(mode)

    def lin_rows(name: str, mor: BundleMor, src: DiffBundle, dst: DiffBundle, detail: str):
        with checks.guard(name):
            ok = is_linear(mor, src, dst)
            checks.condition(name, ok, detail)
            if ok:
                checks.condition(
                    "linear-implies-additive", is_additive(mor, src, dst), detail
                )
                checks.condition(
                    "linear-matches-mu-form", mu_characterization(mor, src, dst), detail
                )

    for label in ("standard-1-1", "standard-2-1", "standard-1-2", "tangent-1"):
        b = fams[label]
        unit = trivial_bundle(b.base, mode)
        ident = identity_map(b.base, mode)
        lin_rows("projection-to-unit-linear", BundleMor(b.q, ident), b, unit, label)
        lin_rows("zero-section-linear", BundleMor(b.zeta, ident), unit, b, label)
        tb = tangent_of_bundle(b)
        lin_rows("bundle-projection-linear", bundle_projection_mor(b), tb, b, label)
        lin_rows("bundle-zero-linear", bundle_zero_mor(b), b, tb, label)

    for i, rng in draws("linearity", "tangent-functor", params):
        dn = rng.randint(1, min(2, params.max_dim))
        dm = rng.randint(1, min(2, params.max_dim))
        f = random_polymap(dn, dm, deg, rng, mode)
        lin_rows(
            "tangent-functor-linear",
            BundleMor(cdc_T(f), f),
            tangent_bundle_of(dn, mode),
            tangent_bundle_of(dm, mode),
            (f"instance {i}: f = ", f),
        )

    b = fams["standard-2-1"]
    for i, rng in draws("linearity", "pullback", params, 10):
        xdim = rng.randint(1, min(2, params.max_dim))
        f = random_polymap(xdim, b.base, deg, rng, mode)
        pb = pullback_bundle(f, b)
        lin_rows(
            "pullback-cartesian-linear",
            pullback_mor(f, b, pb),
            pb,
            b,
            (f"instance {i}: f = ", f),
        )

    b1, b2 = fams["standard-1-1"], fams["standard-1-2"]
    bs = whitney_sum(b1, b2)
    pr0 = whitney_proj(bs, b1, b2, 0)
    pr1 = whitney_proj(bs, b1, b2, 1)
    lin_rows("whitney-projection-linear", pr0, bs, b1, "first projection")
    lin_rows("whitney-projection-linear", pr1, bs, b2, "second projection")
    paired = whitney_pair(pr0, pr1, b1, b2, bs)
    lin_rows("whitney-pairing-linear", paired, bs, bs, "pairing of the projections")
    bs2 = whitney_sum(b2, b1)
    m, k1, k2 = 1, b1.fibre, b2.fibre
    swap = block_swap(m, k1, k2, 0, mode)
    swap_back = block_swap(m, k2, k1, 0, mode)
    ident = identity_map(m, mode)
    lin_rows("whitney-swap-linear", BundleMor(swap, ident), bs, bs2, "swap")
    lin_rows("whitney-swap-linear", BundleMor(swap_back, ident), bs2, bs, "swap inverse")

    b_src = fams["standard-1-1"]
    for i, rng in draws("linearity", "equivalence", params):
        g = random_polymap(1, 1, deg, rng, mode)
        if i % 2 == 0:
            fib = _linear_fibre_map(1, 1, 1, rng, deg, mode)
        else:
            fib = random_polymap(2, 1, deg, rng, mode)
        f_total = polymap_pair(polymap_compose(polymap_proj(2, 0, 1, mode), g), fib)
        mor = BundleMor(f_total, g)
        lam_ok = is_linear(mor, b_src, b_src)
        mu_ok = mu_characterization(mor, b_src, b_src)
        detail = (f"instance {i}: fibre part ", fib, f"; lift-form {lam_ok}, mu-form {mu_ok}")
        checks.condition("linearity-mu-equivalence", lam_ok == mu_ok, detail)
        if lam_ok:
            checks.condition("linear-implies-additive", is_additive(mor, b_src, b_src), detail)

    a_sq = poly_mul(Poly.variable(2, 1, mode), Poly.variable(2, 1, mode))
    squaring = BundleMor(
        polymap_pair(
            polymap_proj(2, 0, 1, mode), PolyMap(2, 1, (a_sq,), mode)
        ),
        identity_map(1, mode),
    )
    checks.condition(
        "squaring-not-linear",
        not is_linear(squaring, b_src, b_src),
        "fibrewise squaring must fail the lift square",
    )
    checks.condition(
        "squaring-not-additive",
        not is_additive(squaring, b_src, b_src),
        "fibrewise squaring must fail additivity",
    )
    checks.condition(
        "squaring-not-mu-form",
        not mu_characterization(squaring, b_src, b_src),
        "fibrewise squaring must fail the mu characterization",
    )

    for i, rng in draws("linearity", "diffobj", params):
        k1 = rng.randint(1, min(2, params.max_dim))
        k2 = rng.randint(1, min(2, params.max_dim))
        if i % 2 == 0:
            matrix = [[scalars.random_scalar(mode, rng) for _ in range(k1)] for _ in range(k2)]
            f = linear_map(k1, matrix, mode)
        else:
            f = random_polymap(k1, k2, deg, rng, mode)
        o1 = canonical_diffobj(k1, mode)
        o2 = canonical_diffobj(k2, mode)
        d1, d2 = bundle_from_diffobj(o1), bundle_from_diffobj(o2)
        phat_ok = polymap_compose(cdc_T(f), o2.phat) == polymap_compose(o1.phat, f)
        mor = BundleMor(f, identity_map(0, mode))
        lam_ok = is_linear(mor, d1, d2)
        detail = (f"instance {i}: f = ", f, f"; lift-form {lam_ok}, phat-form {phat_ok}")
        checks.condition("diffobj-linearity-equivalence", lam_ok == phat_ok, detail)
    return checks


# ---------------------------------------------------------------------------
# Differential objects and Cartesian differential structure


def _suite_diffobj(params: SuiteParams) -> CheckSet:
    mode = params.mode
    checks = CheckSet()
    for k in range(1, params.max_dim + 1):
        o = canonical_diffobj(k, mode)
        checks.absorb(verify_diffobj(o), prefix=f"canonical-{k}:")
        b = bundle_from_diffobj(o)
        checks.absorb(verify_bundle(b), prefix=f"as-bundle-{k}:")
        with checks.guard("roundtrip-through-bundle"):
            o2 = diffobj_from_bundle(b)
            same = o2.sigma == o.sigma and o2.zeta == o.zeta and o2.phat == o.phat
            checks.condition("roundtrip-through-bundle", same, f"dim {k}")
            checks.equality(
                "phat-is-first-projection",
                o2.phat,
                polymap_proj(2 * k, 0, k, mode),
                f"dim {k}",
            )
        checks.equality(
            "derived-identity",
            derived_D(identity_map(k, mode)),
            polymap_proj(2 * k, 0, k, mode),
            f"dim {k}",
        )
        const = constant_map(k, [scalars.coerce(mode, 3)] * k, mode)
        checks.equality(
            "derived-constant",
            derived_D(const),
            zero_map(2 * k, k, mode),
            f"dim {k}",
        )

    refused = _refuses(lambda: diffobj_from_bundle(standard_bundle(1, 1, mode)), PreconditionFailure)
    checks.condition("diffobj-needs-point-base", refused, "nonzero base must be rejected")

    with checks.guard("pullback-point-diffobj"):
        checks.absorb(_point_fibre_checks(standard_bundle(2, 2, mode)), prefix="pullback-point:")
    return checks


# ---------------------------------------------------------------------------
# The simple fibration


def _suite_fibration(params: SuiteParams) -> CheckSet:
    mode, deg = params.mode, params.max_degree
    checks = CheckSet()
    model = SimpleCDModel(mode, params.max_dim)

    eq = checks.equality

    for i, rng in draws("fibration", "composition", params):
        o1, o2, o3, o4 = (model.random_obj(rng) for _ in range(4))
        m1 = model.random_mor(o1, o2, rng, deg)
        m2 = model.random_mor(o2, o3, rng, deg)
        m3 = model.random_mor(o3, o4, rng, deg)
        desc = (f"instance {i}: m1 = ", m1)
        eq(
            "compose-associative",
            simple_compose(simple_compose(m1, m2), m3),
            simple_compose(m1, simple_compose(m2, m3)),
            desc,
        )
        eq("compose-unit-left", simple_compose(simple_identity(o1, mode), m1), m1, desc)
        eq("compose-unit-right", simple_compose(m1, simple_identity(o2, mode)), m1, desc)

    # at most FIBRE_PARAMS.instances each, and the fibre rows at most FIBRE_PARAMS.max_dim payloads
    few = replace(params, instances=min(params.instances, FIBRE_PARAMS.instances))
    checks.absorb(cdc_axioms_checks(model, few, "fibration"), prefix="simple-")
    fibre = replace(few, max_dim=min(params.max_dim, FIBRE_PARAMS.max_dim))
    for ctx in (1, 2):
        checks.absorb(verify_fibre_axioms(ctx, fibre), prefix=f"fibre[{ctx}]:")

    for i, rng in draws("fibration", "vertical", params):
        # instance 0 pins the empty context so the context-free row always runs
        a = 0 if i == 0 else rng.randint(0, min(2, params.max_dim))
        x = rng.randint(1, min(2, params.max_dim))
        y = rng.randint(1, min(2, params.max_dim))
        z = rng.randint(1, min(2, params.max_dim))
        g1 = random_polymap(a + x, y, deg, rng, mode)
        g2 = random_polymap(a + y, z, deg, rng, mode)
        ident_a = identity_map(a, mode)
        m1 = SimpleMor(ident_a, g1)
        m2 = SimpleMor(ident_a, g2)
        desc = (f"instance {i}: context {a}, g = ", g1)
        eq(
            "vertical-functorial",
            vertical_T(a, simple_compose(m1, m2)),
            simple_compose(vertical_T(a, m1), vertical_T(a, m2)),
            desc,
        )
        obj = SimpleObj(a, x)
        eq(
            "vertical-identity",
            vertical_T(a, simple_identity(obj, mode)),
            simple_identity(SimpleObj(a, 2 * x), mode),
            desc,
        )
        vt = vertical_tangent_map(a, g1)
        if a == 0:
            checks.equality("vertical-context-free", vt, cdc_T(g1), desc)
        dom = a + 2 * x
        inj = coordinate_map(dom, (None,) * a + tuple(range(dom)), mode)
        checks.equality(
            "vertical-vs-simple-d",
            polymap_compose(vt, polymap_proj(2 * y, 0, y, mode)),
            polymap_compose(inj, simple_D(m1).g),
            desc,
        )

    moving = SimpleMor(zero_map(1, 1, mode), polymap_proj(2, 1, 2, mode))
    refused = _refuses(lambda: vertical_T(1, moving), PreconditionFailure)
    checks.condition("vertical-requires-identity", refused, "non-identity context part must be refused")
    return checks


# ---------------------------------------------------------------------------
# Monad laws for the tangent addition


def _suite_monad_laws(params: SuiteParams) -> CheckSet:
    model = PolyTangentModel(params.mode)
    checks = CheckSet()

    eq = checks.equality

    for m in range(1, params.max_dim + 1):
        d = f"dim {m}"
        tm = model.t_obj(m)
        mu = monad_mult(model, m)
        eq("monad-unit-zero", model.compose(model.zero(tm), mu), model.identity(tm), d)
        eq(
            "monad-unit-tangent-zero",
            model.compose(model.t_mor(model.zero(m)), mu),
            model.identity(tm),
            d,
        )
        eq(
            "monad-associative",
            model.compose(model.t_mor(mu), mu),
            model.compose(monad_mult(model, tm), mu),
            d,
        )
        eq(
            "monad-over-point",
            model.compose(mu, model.p(m)),
            model.compose(model.p(tm), model.p(m)),
            d + ", via p_T",
        )
        eq(
            "monad-over-point",
            model.compose(mu, model.p(m)),
            model.compose(model.t_mor(model.p(m)), model.p(m)),
            d + ", via T(p)",
        )
    for i, rng in draws("monad-laws", "naturality", params):
        dx = rng.randint(1, params.max_dim)
        dy = rng.randint(1, params.max_dim)
        f = model.random_mor(dx, dy, rng, params.max_degree)
        desc = (f"instance {i}: f = ", f)
        eq(
            "monad-naturality",
            model.compose(model.t_mor(model.t_mor(f)), monad_mult(model, dy)),
            model.compose(monad_mult(model, dx), model.t_mor(f)),
            desc,
        )
    return checks


# ---------------------------------------------------------------------------
# Numeric consistency: exact dual numbers against D and against difference quotients

# points and directions lie in [-POINT_BOUND, POINT_BOUND], or [0, POINT_BOUND] in natural
# mode; a wrong D of degree d agrees with the right one at such a point with probability
# at most d / (2 * POINT_BOUND + 1) (Schwartz, JACM 1980), so few points per draw suffice
POINT_BOUND = 10**6
POINTS_PER_DRAW = 5


def _random_point(m: int, rng: Random, mode: str) -> list:
    lo = 0 if mode == scalars.NATURAL else -POINT_BOUND
    return [rng.randint(lo, POINT_BOUND) for _ in range(m)]


def _suite_numeric_consistency(params: SuiteParams) -> CheckSet:
    checks = CheckSet()
    mode, deg = params.mode, params.max_degree

    for i, rng in draws("numeric-consistency", "dual-vs-symbolic", params):
        m = rng.randint(1, params.max_dim)
        f = random_polymap(m, rng.randint(1, min(2, params.max_dim)), deg, rng, mode)
        df, desc = cdc_D(f), (f"instance {i}: f = ", f)
        for j in range(POINTS_PER_DRAW):
            point, direction = _random_point(m, rng, mode), _random_point(m, rng, mode)
            detail = (*desc, f", point {j}: x = ", point, ", v = ", direction)
            _, tangents = dual_eval(f, point, direction)
            checks.equality("dual-vs-symbolic", tangents, eval_polymap(df, direction + point), detail)
            checks.equality("fd-vs-dual", fd_check(f, point, direction), (0,) * f.cod, detail)

    for i, rng in draws("numeric-consistency", "affine", params, 10):
        m = rng.randint(1, min(3, params.max_dim))
        # row i holds the constant, then the coefficients, of output i
        rows = [[scalars.random_scalar(mode, rng) for _ in range(m + 1)] for _ in range(m)]
        shift = constant_map(m, [row[0] for row in rows], mode)
        f = polymap_add(shift, linear_map(m, [row[1:] for row in rows], mode))
        point, direction = _random_point(m, rng, mode), _random_point(m, rng, mode)
        checks.equality(
            "affine-fd-tight",
            fd_check(f, point, direction),
            (0,) * m,
            (f"instance {i}: f = ", f, ", x = ", point, ", v = ", direction),
        )

    for i, rng in draws("numeric-consistency", "degenerate", params, 10):
        m = rng.randint(1, min(3, params.max_dim))
        f = random_polymap(m, 2, deg, rng, mode)
        point = _random_point(m, rng, mode)
        _, tangents = dual_eval(f, point, [0] * m)
        desc = f"instance {i}: x = {point}"
        checks.equality("zero-direction-zero-tangent", tangents, (0, 0), (desc, ", f = ", f))
        direction = _random_point(m, rng, mode)
        _, tangents = dual_eval(constant_map(m, [5, 7], mode), point, direction)
        checks.equality("constant-zero-tangent", tangents, (0, 0), f"{desc}, v = {direction}")
    return checks


# ---------------------------------------------------------------------------
# Registry


_SUITES: Dict[str, Callable[[SuiteParams], CheckSet]] = {
    "tangent-axioms": lambda p: tangent_axioms_checks(_TANGENT_MODELS[p.fault](p.mode), p),
    "cdc-axioms": lambda p: cdc_axioms_checks(PolyCDModel(cdc_D, p.mode, p.max_dim), p, "cdc-axioms"),
    "derived-differential": _suite_derived_differential,
    "bundle": _suite_bundle,
    "bracket-laws": _suite_bracket_laws,
    "interchange": _suite_interchange,
    "linearity": _suite_linearity,
    "diffobj": _suite_diffobj,
    "cds": lambda p: check_cds(p.max_dim, p.mode),
    "fibration": _suite_fibration,
    "monad-laws": _suite_monad_laws,
    "numeric-consistency": _suite_numeric_consistency,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(name: str, **overrides) -> Report:
    """Run a named suite under SuiteParams(**overrides), a None value meaning the default.

    Raises ValueError for an unknown suite, an unknown or invalid parameter,
    and a fault that does not affect the suite.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown-suite: {name!r}; choose from {', '.join(SUITE_NAMES)}")
    for key in overrides:
        if key not in SuiteParams.__dataclass_fields__:
            raise ValueError(f"invalid-params: unknown parameter {key!r}")
    params = SuiteParams(**{key: value for key, value in overrides.items() if value is not None})
    fault = params.fault
    if fault is not None and fault not in FAULT_SUITES:
        raise ValueError(f"invalid-params: unknown fault {fault!r}; choose from {', '.join(FAULTS)}")
    if fault is not None and name not in FAULT_SUITES[fault]:
        raise ValueError(f"invalid-params: fault {fault!r} does not affect suite {name!r}")
    return _SUITES[name](params).report(name, {**asdict(params), "coeff_bound": scalars.COEFF_BOUND})
