"""Differential combinators on polynomial maps, and the tangent and CD models they induce.

Layout conventions, used consistently everywhere:

  T(m) = 2m   coordinates (u, x): tangent block first, then point block.
  T_n(m)      coordinates (u_1, ..., u_n, x).
  T^2(m) = 4m coordinates (du, dx, u, x), obtained by applying T blockwise.

T preserves the pullbacks P paired into (T_2(m), a bundle's E_2), so T(P)
carries the tangent block of P, then its point block: T(T_2(m)) is (du1, du2,
dx, u1, u2, x), T(E_2) is (dx, da, db, x, a, b), and t_pair derives the
pairing into T(P) from the one into P.

The differential of f : m -> n is the map D(f) : 2m -> n whose i-th
component is sum_j d f_i / d x_j (x) * u_j, and the tangent functor acts by
T(f) = <D(f), pi1 f> : 2m -> 2n.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from functools import lru_cache, partial, wraps
from itertools import compress, groupby
from typing import Callable, Sequence

from . import scalars
from .errors import DimensionMismatch, PreconditionFailure
from .model import LiftWitness, TnObject
from .poly import (
    Poly,
    PolyMap,
    block_swap,
    constant_map,
    coordinate_map,
    identity_map,
    polymap_add,
    polymap_compose,
    polymap_pair,
    polymap_proj,
    random_polymap,
    zero_map,
)


def memo_by_input(fn: Callable) -> Callable:
    """Cache ``fn(x)`` for as long as ``x``, or an equal live value, is alive.

    The inputs are frozen, so an equal input gets the same result, and the
    cache holds them weakly, so an entry goes when its input is collected.
    """
    cache = weakref.WeakKeyDictionary()

    @wraps(fn)
    def memo(x):
        got = cache.get(x)
        if got is None:
            got = cache[x] = fn(x)
        return got

    return memo


@memo_by_input
def cdc_D(f: PolyMap) -> PolyMap:
    """Differential of f : m -> n as a map 2m -> n over coordinates (u, x).

    Each term u_j * (a term of d comp / d x_j) has the total degree of the term
    it came from, and no two collide.  Within one degree the u-block e_j comes
    before e_k for j < k, and lowering x_j keeps the order of the terms.  So
    walking comp's degree runs, then each x_j, then the run's terms that have
    x_j, lowering x_j in each, yields graded-lex order: nothing is added or
    sorted.  Only the variables that comp contains are walked, and the unit
    tuple of x_j is built when first needed, so a wide, sparse f costs its
    terms, not the square of its width.
    """
    m = f.dom
    units = {}
    comps = []
    for comp in f.components:
        terms = []
        used = set()
        for ev, _ in comp.terms:
            used.update(compress(range(m), ev))
            if len(used) == m:  # a dense comp meets every variable within its first terms
                break
        used = sorted(used)
        for j in used:
            if j not in units:
                units[j] = (0,) * j + (1,) + (0,) * (m - j - 1)
        for _, run in groupby(comp.terms, key=lambda t: sum(t[0])):
            run = list(run)
            for j in used:
                unit = units[j]
                for ev, c in run:
                    e = ev[j]
                    if e:
                        c *= e
                        # one list, then a tuple of its size; tuple(map(...)) measured more peak RSS
                        lowered = (*unit, *ev[:j], e - 1, *ev[j + 1 :])
                        terms.append((lowered, c if c.denominator != 1 else c.numerator))
        comps.append(Poly(2 * m, tuple(terms), f.mode))
    return PolyMap(2 * m, f.cod, tuple(comps), f.mode)


@lru_cache(maxsize=None)
def point_proj(m: int, mode: str) -> PolyMap:
    """Projection p : T(m) -> m onto the point block."""
    return polymap_proj(2 * m, m, 2 * m, mode)


@memo_by_input
def cdc_T(f: PolyMap) -> PolyMap:
    """Tangent functor action T(f) = <D(f), pi1 f> : 2m -> 2n."""
    tail = polymap_compose(point_proj(f.dom, f.mode), f)
    return polymap_pair(cdc_D(f), tail)


@lru_cache(maxsize=None)
def tangent_zero(m: int, mode: str) -> PolyMap:
    """Zero section 0 : m -> T(m), x |-> (0, x)."""
    return coordinate_map(m, (None,) * m + tuple(range(m)), mode)


@lru_cache(maxsize=None)
def tangent_plus(m: int, mode: str) -> PolyMap:
    """Fibre addition + : T_2(m) -> T(m), (u1, u2, x) |-> (u1 + u2, x)."""
    u1 = polymap_proj(3 * m, 0, m, mode)
    u2 = polymap_proj(3 * m, m, 2 * m, mode)
    return polymap_pair(polymap_add(u1, u2), polymap_proj(3 * m, 2 * m, 3 * m, mode))


@lru_cache(maxsize=None)
def cdc_ell(m: int, mode: str) -> PolyMap:
    """Vertical lift ell : T(m) -> T^2(m), (u, x) |-> (u, 0, 0, x)."""
    return coordinate_map(2 * m, (*range(m), *(None,) * (2 * m), *range(m, 2 * m)), mode)


@lru_cache(maxsize=None)
def cdc_flip(m: int, mode: str) -> PolyMap:
    """Canonical symmetry c : T^2(m) -> T^2(m), (du, dx, u, x) |-> (du, u, dx, x)."""
    return block_swap(m, m, m, m, mode)


@lru_cache(maxsize=None)
def t_n_carrier(m: int, n: int, mode: str) -> TnObject:
    """The n-fold fibred power T_n(m) with coordinates (u_1, ..., u_n, x)."""
    dim = (n + 1) * m
    projs = (coordinate_map(dim, (*range(i * m, (i + 1) * m), *range(n * m, dim)), mode) for i in range(n))
    return TnObject(carrier=dim, projections=tuple(projs))


def pair_into_t2(m: int, f: PolyMap, g: PolyMap) -> PolyMap:
    """<f, g> : W -> T_2(m) for f, g : W -> T(m) with f;p = g;p."""
    if f.cod != 2 * m or g.cod != 2 * m or f.dom != g.dom:
        raise DimensionMismatch("pair_into_t2 needs two maps into T(%d)" % m)
    if f.components[m:] != g.components[m:]:
        raise PreconditionFailure("pair into T_2: point parts disagree")
    comps = f.components[:m] + g.components[:m] + f.components[m:]
    return PolyMap(f.dom, 3 * m, comps, f.mode)


def t_pair(pair: Callable[[PolyMap, PolyMap], PolyMap], f: PolyMap, g: PolyMap) -> PolyMap:
    """<f, g> : W -> T(P) for f, g : W -> T(X), where pair(f0, g0) : W -> P.

    T(P) carries the pairing of the tangent halves of f and g, then that of
    their point halves; pair refuses halves that disagree where P needs it.
    """

    def halves(h: PolyMap):
        n = h.cod // 2
        return [PolyMap(h.dom, len(c), c, h.mode) for c in (h.components[:n], h.components[n:])]

    (df, xf), (dg, xg) = halves(f), halves(g)
    return polymap_pair(pair(df, dg), pair(xf, xg))


def tangent_sum(m: int, f: PolyMap, g: PolyMap) -> PolyMap:
    """<f, g>;+ : W -> T(m), the sum of f, g : W -> T(m) over a shared point."""
    return polymap_compose(pair_into_t2(m, f, g), tangent_plus(m, f.mode))


class PolyTangentModel:
    """Polynomial maps over a fixed scalar mode, with T(m) = 2m (model.py's contract)."""

    def __init__(self, mode: str = scalars.RATIONAL):
        scalars.check_mode(mode)
        self.mode = mode

    def _embed(self, f: PolyMap) -> PolyMap:
        """Turn a polynomial structural map into a morphism of this model."""
        return f

    def t_obj(self, m: int) -> int:
        return 2 * m

    def t_mor(self, f: PolyMap) -> PolyMap:
        return cdc_T(f)

    def p(self, m: int) -> PolyMap:
        return self._embed(point_proj(m, self.mode))

    def zero(self, m: int) -> PolyMap:
        return self._embed(tangent_zero(m, self.mode))

    def plus(self, m: int) -> PolyMap:
        return self._embed(tangent_plus(m, self.mode))

    def ell(self, m: int) -> PolyMap:
        return self._embed(cdc_ell(m, self.mode))

    def flip(self, m: int) -> PolyMap:
        return self._embed(cdc_flip(m, self.mode))

    def t_n(self, m: int, n: int) -> TnObject:
        tn = t_n_carrier(m, n, self.mode)
        return replace(tn, projections=tuple(map(self._embed, tn.projections)))

    def pair_t2(self, m: int, f: PolyMap, g: PolyMap) -> PolyMap:
        return pair_into_t2(m, f, g)

    def pair_t_t2(self, m: int, f: PolyMap, g: PolyMap) -> PolyMap:
        return t_pair(partial(pair_into_t2, m), f, g)

    def compose(self, f: PolyMap, g: PolyMap) -> PolyMap:
        return polymap_compose(f, g)

    def identity(self, m: int) -> PolyMap:
        return self._embed(identity_map(m, self.mode))

    def random_mor(self, m: int, n: int, rng, max_degree: int) -> PolyMap:
        return random_polymap(m, n, max_degree, rng, self.mode)

    def lift_witness(self, m: int) -> LiftWitness:
        # R := pullback of T(p) along 0, realized on T_2's coordinates (alpha, beta, x);
        # sel reads it off a second tangent (du, dx, u, x), and into_tangent puts it back.
        return LiftWitness(
            sel=self._embed(coordinate_map(4 * m, (*range(m), *range(2 * m, 4 * m)), self.mode)),
            into_tangent=self._embed(
                coordinate_map(3 * m, (*range(m), *(None,) * m, *range(m, 3 * m)), self.mode)
            ),
            into_base=self._embed(polymap_proj(3 * m, 2 * m, 3 * m, self.mode)),
        )


class PolyCDModel:
    """Polynomial maps as a Cartesian differential category under a differential D.

    This is the CD-model interface that ``cdc_axioms_checks`` runs against.
    Objects are dimensions, the product of objects is their sum, and points
    are maps out of the unit object 0.
    """

    unit = 0

    def __init__(self, D: Callable[[PolyMap], PolyMap], mode: str, max_dim: int):
        scalars.check_mode(mode)
        self.D = D
        self.mode = mode
        self.max_dim = max_dim

    def compose(self, f: PolyMap, g: PolyMap) -> PolyMap:
        return polymap_compose(f, g)

    def pair(self, *maps: PolyMap) -> PolyMap:
        return polymap_pair(*maps)

    def product(self, *objs: int) -> int:
        return sum(objs)

    def proj(self, objs: Sequence[int], i: int) -> PolyMap:
        """Projection out of product(*objs) onto its i-th factor."""
        lo = sum(objs[:i])
        return polymap_proj(sum(objs), lo, lo + objs[i], self.mode)

    def add(self, f: PolyMap, g: PolyMap) -> PolyMap:
        return polymap_add(f, g)

    def zero(self, dom: int, cod: int) -> PolyMap:
        return zero_map(dom, cod, self.mode)

    def identity(self, m: int) -> PolyMap:
        return identity_map(m, self.mode)

    def random_obj(self, rng) -> int:
        return rng.randint(1, self.max_dim)

    def random_mor(self, dom: int, cod: int, rng, max_degree: int) -> PolyMap:
        return random_polymap(dom, cod, max_degree, rng, self.mode)

    def random_point(self, obj: int, rng) -> PolyMap:
        values = [scalars.random_scalar(self.mode, rng) for _ in range(obj)]
        return constant_map(0, values, self.mode)
