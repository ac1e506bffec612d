"""Sparse multivariate polynomials and polynomial maps.

Objects of the ambient category are finite powers of the base line; a
morphism m -> n is a tuple of n polynomials in m variables.  Composition is
written in diagrammatic order throughout: ``polymap_compose(f, g)`` is
"f then g".

Terms are kept in graded-lexicographic order (total degree first, then the
exponent vector, both descending), so structural equality of the stored
tuples coincides with mathematical equality over the chosen semiring.  An
integral coefficient is stored as an ``int`` in both modes (see
``scalars.coerce``); a ``Fraction`` coefficient is never integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import add
from random import Random
from typing import Dict, Iterable, Sequence, Tuple

from . import scalars
from .errors import DimensionMismatch

Exponent = Tuple[int, ...]


def _canonical(acc: Dict[Exponent, object]) -> tuple:
    """The nonzero terms of an accumulator, graded-lex descending: the one sort per result.

    A sum or product of Fractions can be integral; it is stored as its int.
    """
    terms = [(ev, c if c.denominator != 1 else c.numerator) for ev, c in acc.items() if c]
    terms.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return tuple(terms)


def _add_terms(acc: Dict[Exponent, object], items: Iterable) -> Dict[Exponent, object]:
    """Add the (exponent, coefficient) pairs of ``items`` into ``acc``."""
    for ev, c in items:
        got = acc.get(ev)
        acc[ev] = c if got is None else got + c
    return acc


def _mul_terms(acc: Dict[Exponent, object], a: Iterable, b: Iterable) -> Dict[Exponent, object]:
    """Add every product of a term of ``a`` and a term of ``b`` into ``acc``."""
    for ev1, c1 in a:
        for ev2, c2 in b:
            ev = tuple(map(add, ev1, ev2))
            got = acc.get(ev)
            acc[ev] = c1 * c2 if got is None else got + c1 * c2
    return acc


@dataclass(frozen=True, slots=True, init=False)
class Poly:
    nvars: int
    terms: tuple  # ((exponent, coefficient), ...) graded-lex descending
    mode: str

    def __init__(self, nvars: int, terms: tuple, mode: str, _set=object.__setattr__):
        """Sets the fields as the generated frozen __init__ would, without its per-field lookups."""
        _set(self, "nvars", nvars)
        _set(self, "terms", terms)
        _set(self, "mode", mode)

    @staticmethod
    def from_terms(nvars: int, items: Iterable[Tuple[Exponent, object]], mode: str) -> "Poly":
        scalars.check_mode(mode)
        terms = _canonical(_add_terms({}, ((tuple(ev), scalars.coerce(mode, c)) for ev, c in items)))
        for ev, _ in terms:
            if len(ev) != nvars:
                raise DimensionMismatch(f"exponent vector {ev} does not have {nvars} entries")
        return Poly(nvars, terms, mode)

    @staticmethod
    def zero(nvars: int, mode: str) -> "Poly":
        scalars.check_mode(mode)
        return Poly(nvars, (), mode)

    @staticmethod
    def constant(nvars: int, value, mode: str) -> "Poly":
        return Poly.from_terms(nvars, [((0,) * nvars, value)], mode)

    @staticmethod
    @lru_cache(maxsize=None)
    def variable(nvars: int, i: int, mode: str) -> "Poly":
        if not 0 <= i < nvars:
            raise DimensionMismatch(f"variable index {i} out of range for {nvars} variables")
        ev = (0,) * i + (1,) + (0,) * (nvars - i - 1)
        return Poly(nvars, ((ev, 1),), scalars.check_mode(mode))


def _check_same_shape(a: Poly, b: Poly):
    if a.nvars != b.nvars:
        raise DimensionMismatch(f"polynomials over {a.nvars} and {b.nvars} variables")
    if a.mode != b.mode:
        raise DimensionMismatch(f"mixed scalar modes {a.mode!r} and {b.mode!r}")


def poly_add(a: Poly, b: Poly) -> Poly:
    _check_same_shape(a, b)
    return Poly(a.nvars, _canonical(_add_terms(dict(a.terms), b.terms)), a.mode)


def poly_degree(p: Poly) -> int:
    """Total degree; 0 for the zero polynomial.  Graded-lex order puts a term of largest degree first."""
    return sum(p.terms[0][0]) if p.terms else 0


def _mul_packed(a: Iterable, b: list) -> Dict[int, int]:
    """Every product of a (packed key, int) term of a and one of b, added up by key."""
    out: Dict[int, int] = {}
    for k1, c1 in a:
        for k2, c2 in b:
            k = k1 + k2
            if k in out:
                out[k] += c1 * c2
            else:
                out[k] = c1 * c2
    return out


def _affine_power(l0: int, linear: list, e: int) -> Dict[int, int]:
    """(l0 + L)^e for an int l0 != 0 and the (packed key, int) terms of a linear L.

    By J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): the part P_k of
    degree k is C(e, k) * l0^(e - k) * L^k, so k * l0 * P_k = (e - k + 1) * L * P_(k-1)
    from P_0 = l0^e.  Each P_k has int coefficients, so each division is
    exact, and each P_k takes |L| * |P_(k-1)| term products.
    """
    part = {0: l0**e}
    out = dict(part)
    for k in range(1, e + 1):
        m, div = e - k + 1, k * l0
        part = {key: c1 * m // div for key, c1 in _mul_packed(part.items(), linear).items()}
        out.update(part)
    return out


def poly_product(factors: Sequence[Tuple[Poly, int]]) -> Poly:
    """f^count * ... over the (f, count) pairs of factors, multiplied in one factor at a time.

    One accumulator takes one factor per step, so the product of a dense power
    and sparse factors never multiplies two dense polynomials (Johnson, "Sparse
    polynomial arithmetic", 1974).  Not by repeated squaring either: squaring
    multiplies two dense halves and does more term products.  f^0 is 1, 0^0
    included, and a single factor to the first power is returned as it is.
    Constant factors are folded into one scalar, applied to the result's
    coefficients once.  When the first other factor is affine with a nonzero
    constant term and a count of at least 2, its power is built at once by
    Miller's recurrence (see _affine_power), with at most |f| - 1 term products
    per term of the result, where one step at a time multiplies f into every
    lower power: (x0+x1+x2+1)^20 takes 4,620 term products instead of 35,416.

    Each exponent vector is packed into one int: a field for the total degree,
    then one per variable, from the high bits down, each wide enough for the
    product's total degree.  Exponents are never negative, so a field never
    carries into the next, adding packed ints adds exponent vectors, and the
    packed ints sort in graded-lex order.  Each factor is scaled by the least
    common multiple of its denominators, so the loop multiplies ints only, and
    each result coefficient is divided by the product of the scales once.  The
    result is unpacked and sorted once, at the end.
    """
    first = factors[0][0]
    for f, count in factors:
        _check_same_shape(first, f)
        if count < 0:
            raise ValueError(f"negative exponent {count}")
    if len(factors) == 1 and factors[0][1] == 1:
        return first
    nvars, mode = first.nvars, first.mode
    factors = [(f, count) for f, count in factors if count]
    if any(not f.terms for f, _ in factors):
        return Poly(nvars, (), mode)
    degree = sum(count * poly_degree(f) for f, count in factors)
    width = max(degree.bit_length(), 1)
    shifts = range(width * nvars, -1, -width)

    scale, const, acc = 1, 1, None
    for f, count in factors:
        d = lcm(*(c.denominator for _, c in f.terms))
        scale *= d**count
        if not any(f.terms[0][0]):  # a constant
            const *= f.terms[0][1].numerator ** count
            continue
        items = [(sum(e << s for e, s in zip((sum(ev), *ev), shifts)), c.numerator * (d // c.denominator))
                 for ev, c in f.terms]
        if acc is None:
            if count > 1 and sum(f.terms[0][0]) == 1 and not any(f.terms[-1][0]):  # affine, constant term
                acc = _affine_power(items[-1][1], items[:-1], count)
                continue
            acc, count = dict(items), count - 1
        for _ in range(count):
            acc = _mul_packed(acc.items(), items)
    if acc is None:
        acc = {0: 1}
    mask, var_shifts = (1 << width) - 1, shifts[1:]
    terms = []
    for k in sorted(acc, reverse=True):
        c = acc[k] * const
        if c:
            c = Fraction(c, scale) if c % scale else c // scale
            terms.append((tuple((k >> s) & mask for s in var_shifts), c))
    return Poly(nvars, tuple(terms), mode)


def poly_mul(a: Poly, b: Poly) -> Poly:
    return poly_product(((a, 1), (b, 1)))


def _scaled(terms: Iterable, c) -> list:
    """The (exponent, c * coefficient) pairs of terms, in order, for a nonzero scalar c.

    A nonzero c keeps every term nonzero.  An int coefficient is multiplied by
    c's numerator and divided by its denominator in ints, with no Fraction
    operator dispatch; an integral product is an int.
    """
    n, d = c.numerator, c.denominator
    out = []
    for ev, c2 in terms:
        if c2.__class__ is int:
            c2 *= n
            if d != 1:
                q, r = divmod(c2, d)
                c2 = Fraction(c2, d) if r else q
        else:
            c2 *= c
            if c2.denominator == 1:
                c2 = c2.numerator
        out.append((ev, c2))
    return out


def poly_scale(a: Poly, value) -> Poly:
    c = scalars.coerce(a.mode, value)
    return Poly(a.nvars, tuple(_scaled(a.terms, c)) if c else (), a.mode)


def partial_derivative(p: Poly, i: int) -> Poly:
    """Formal partial derivative; the k*c coefficients stay inside either semiring.

    Lowering x_i in every surviving term keeps their graded-lex order.
    """
    if not 0 <= i < p.nvars:
        raise DimensionMismatch(f"variable index {i} out of range for {p.nvars} variables")
    terms = []
    for ev, c in p.terms:
        if ev[i]:
            c *= ev[i]
            terms.append((ev[:i] + (ev[i] - 1,) + ev[i + 1 :], c if c.denominator != 1 else c.numerator))
    return Poly(p.nvars, tuple(terms), p.mode)


def poly_shift_vars(p: Poly, offset: int, new_nvars: int) -> Poly:
    """Reindex variable i to variable i + offset inside a wider variable block.

    Padding every exponent vector with the same zeros keeps the term order,
    and a shift by 0 within as many variables is p itself.
    """
    if offset < 0 or p.nvars + offset > new_nvars:
        raise DimensionMismatch("shifted variables fall outside the new block")
    if new_nvars == p.nvars:
        return p
    before, after = (0,) * offset, (0,) * (new_nvars - p.nvars - offset)
    return Poly(new_nvars, tuple((before + ev + after, c) for ev, c in p.terms), p.mode)


def _power(powers: Dict[Tuple[int, int], Iterable], args: Sequence[Poly], i: int, e: int) -> Iterable:
    """The terms of args[i]^e, each power kept in powers by (i, e) and built from the one below it.

    A module function, not a closure of poly_subst: a closure that calls
    itself is a reference cycle, left on every call for the cyclic collector.
    """
    got = powers.get((i, e))
    if got is None:
        base = args[i].terms
        got = base if e == 1 else _mul_terms({}, _power(powers, args, i, e - 1), base).items()
        powers[(i, e)] = got
    return got


def poly_subst(p: Poly, args: Sequence[Poly]) -> Poly:
    """Substitute args[i] for variable i.  All args share a domain width.

    A p that is c * x_i + c0 is args[i] scaled term by term (see _scaled), with
    c0 added into its last term if that is constant and appended otherwise: a
    nonzero c keeps the order and the nonzeroness of every term, so nothing is
    added into a dict or sorted.  Any other linear p (every term c * x_i or the
    constant) adds its scaled arguments into one accumulator, sorted once,
    with no table of powers.  Otherwise every term is expanded into one
    accumulator, which is sorted once; a term's first variable factor scales
    its power of args[i] by c.
    """
    if len(args) != p.nvars:
        raise DimensionMismatch(f"{p.nvars} variables but {len(args)} substitutions")
    if p.nvars == 0:
        widths = 0
    else:
        widths = args[0].nvars
        for q in args:
            if q.nvars != widths or q.mode != p.mode:
                raise DimensionMismatch("substitution arguments disagree in shape")
    terms = p.terms
    if terms and sum(terms[0][0]) <= 1:  # linear; graded-lex order puts the constant, if any, last
        c0 = 0
        if not any(terms[-1][0]):
            *terms, (_, c0) = terms
        if len(terms) == 1:
            ev, c = terms[0]
            scaled = _scaled(args[ev.index(1)].terms, c)
            if c0 and scaled and not any(scaled[-1][0]):
                c0 += scaled.pop()[1]
            if c0:
                scaled.append(((0,) * widths, c0 if c0.denominator != 1 else c0.numerator))
            return Poly(widths, tuple(scaled), p.mode)
        acc = {(0,) * widths: c0} if c0 else {}
        for ev, c in terms:
            _add_terms(acc, _scaled(args[ev.index(1)].terms, c))
        return Poly(widths, _canonical(acc), p.mode)
    powers: Dict[Tuple[int, int], Iterable] = {}
    acc: Dict[Exponent, object] = {}
    for ev, c in p.terms:
        term = None
        for i, e in enumerate(ev):
            if e:
                if term is None:
                    term = _scaled(_power(powers, args, i, e), c)
                else:
                    term = _mul_terms({}, term, _power(powers, args, i, e)).items()
        _add_terms(acc, (((0,) * widths, c),) if term is None else term)
    return Poly(widths, _canonical(acc), p.mode)


# ---------------------------------------------------------------------------
# Polynomial maps


# A map's cached facts, (hash, _var_index_each), each None until first asked
# for, are one attribute outside the fields: under CPython 3.11 an instance
# keeps one attribute beyond its four fields inline, and a second builds a
# dict of about 220 bytes for the map.
_NO_FACTS = (None, None)


@dataclass(frozen=True, init=False)
class PolyMap:
    dom: int
    cod: int
    components: Tuple[Poly, ...]
    mode: str

    def __init__(self, dom: int, cod: int, components: Tuple[Poly, ...], mode: str, _set=object.__setattr__):
        if len(components) != cod:
            raise DimensionMismatch(f"{cod} components expected, got {len(components)}")
        if not components:
            scalars.check_mode(mode)  # otherwise each component's mode vouches for it
        for comp in components:
            if comp.nvars != dom or comp.mode != mode:
                raise DimensionMismatch("component does not match the map's domain or mode")
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "components", components)
        _set(self, "mode", mode)

    def __hash__(self, _set=object.__setattr__) -> int:
        """The generated hash, hash((dom, cod, components, mode)), computed once per map.

        It is kept in the map's facts (see _NO_FACTS), outside the fields, so
        ==, repr, replace and frozenness do not see it.  A str hash differs
        between processes, so a map copied into another process by pickle
        would bring a stale hash; nothing pickles maps.
        """
        facts = getattr(self, "_facts", _NO_FACTS)
        h = facts[0]
        if h is None:
            h = hash((self.dom, self.cod, self.components, self.mode))
            _set(self, "_facts", (h, facts[1]))
        return h

    def __str__(self) -> str:
        return polymap_to_str(self)


def _checked_map(dom: int, cod: int, components: tuple, mode: str,
                 _new=object.__new__, _set=object.__setattr__) -> PolyMap:
    """A PolyMap of components already known to be ``cod`` polynomials over (dom, mode).

    Only compose and pair call this: their components come from maps that
    were checked when built.  Sets the fields as __init__ does, unchecked.
    """
    f = _new(PolyMap)
    _set(f, "dom", dom)
    _set(f, "cod", cod)
    _set(f, "components", components)
    _set(f, "mode", mode)
    return f


def coordinate_map(dom: int, images: Tuple[int | None, ...], mode: str) -> PolyMap:
    """The map whose i-th output is input coordinate images[i], or 0 where images[i] is None.

    Every projection, swap, zero padding and injection of coordinates is one.
    """
    zero = Poly.zero(dom, mode)
    comps = tuple(zero if j is None else Poly.variable(dom, j, mode) for j in images)
    return PolyMap(dom, len(comps), comps, mode)


@lru_cache(maxsize=None)
def identity_map(m: int, mode: str) -> PolyMap:
    return coordinate_map(m, tuple(range(m)), mode)


@lru_cache(maxsize=None)
def zero_map(dom: int, cod: int, mode: str) -> PolyMap:
    return coordinate_map(dom, (None,) * cod, mode)


def constant_map(dom: int, values: Sequence, mode: str) -> PolyMap:
    comps = tuple(Poly.constant(dom, v, mode) for v in values)
    return PolyMap(dom, len(comps), comps, mode)


def _var_index(p: Poly):
    """j when p is the bare variable x_j, else None."""
    if len(p.terms) == 1:
        ev, c = p.terms[0]
        if c == 1 and sum(ev) == 1:
            return ev.index(1)
    return None


def _var_index_each(f: PolyMap, _set=object.__setattr__) -> tuple:
    """(_var_index(c) for each component c of f), computed once per map.

    f is a variable map when no entry is None.  Kept in the map's facts,
    beside the cached hash.
    """
    facts = getattr(f, "_facts", _NO_FACTS)
    each = facts[1]
    if each is None:
        each = tuple(map(_var_index, f.components))
        _set(f, "_facts", (facts[0], each))
    return each


def _rename(p: Poly, images: Sequence, nvars: int) -> Poly:
    """p with variable j renamed to variable images[j] of nvars, or set to 0 where images[j] is None.

    A term with a variable set to 0 is dropped; the rest have their exponents
    moved, and colliding terms are added.
    """
    moved = []
    for ev, c in p.terms:
        renamed = [0] * nvars
        for j, e in enumerate(ev):
            if e:
                i = images[j]
                if i is None:
                    break
                renamed[i] += e
        else:
            moved.append((tuple(renamed), c))
    return Poly(nvars, _canonical(_add_terms({}, moved)), p.mode)


def _spread(p: Poly, images: Sequence[int], nvars: int) -> Poly:
    """_rename for strictly increasing images: terms keep their order and never collide.

    Images that fill one block lo, lo + 1, ... (a projection) shift p by lo.
    Without this path, _rename's dict and sort made suites verdict_p90_s and
    peak_rss_mb worse in each of 10 benchmark pairs (BENCH_18.json).
    """
    if not images or images[-1] - images[0] == len(images) - 1:
        return poly_shift_vars(p, images[0] if images else 0, nvars)
    zeros, terms = [0] * nvars, []
    for ev, c in p.terms:
        renamed = zeros[:]
        for i, e in zip(images, ev):
            renamed[i] = e
        terms.append((tuple(renamed), c))
    return Poly(nvars, tuple(terms), p.mode)


def _renaming(f: PolyMap):
    """(images, rename) when every component of f is a bare variable or zero, else (None, None).

    images[j] is the variable of f's component j, or None where it is 0.
    """
    images = _var_index_each(f)
    if not all(j is not None or not c.terms for j, c in zip(images, f.components)):
        return None, None
    if None not in images and all(map(int.__lt__, images, images[1:])):
        return images, _spread
    return images, _rename


def polymap_compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """Diagrammatic composite f;g (apply f first), one component of g at a time.

    The composite is g itself when f is the identity, and f itself when g is
    the identity.  A bare variable x_j of g is f's component j and a zero
    stays zero, with no arithmetic, so a variable map g selects f's
    components.  Any other component is renamed when every component of f
    is a bare variable or zero (f is a variable map vacuously when g.dom is
    0), and has f substituted into it otherwise.  A renaming by strictly
    increasing images (a projection, a point projection) keeps graded-lex
    order and adds no terms together, so it is neither accumulated nor
    sorted.
    """
    if f.cod != g.dom:
        raise DimensionMismatch(f"cannot compose cod {f.cod} with dom {g.dom}")
    if f.mode != g.mode:
        raise DimensionMismatch(f"mixed scalar modes {f.mode!r} and {g.mode!r}")
    if f.dom == f.cod and (not f.dom or len(f.components[0].terms) == 1):  # a dense f stops here
        if f.components == identity_map(f.dom, f.mode).components:
            return g  # f is the identity: a component that is not x_i stops the comparison
    g_each = _var_index_each(g)
    if g.dom == g.cod and g_each == tuple(range(g.dom)):
        return f  # g is the identity
    comps, zero, images = [], None, False  # False: f not examined yet
    for comp, j in zip(g.components, g_each):
        if j is not None:
            comps.append(f.components[j])
        elif not comp.terms:
            if zero is None:
                zero = Poly(f.dom, (), f.mode)  # built at the first zero component, shared by the rest
            comps.append(zero)
        else:
            if images is False:
                images, rename = _renaming(f)
            comps.append(poly_subst(comp, f.components) if images is None else rename(comp, images, f.dom))
    return _checked_map(f.dom, g.cod, tuple(comps), f.mode)


def polymap_pair(*maps: PolyMap) -> PolyMap:
    """<f, g, ...>: concatenate components over a common domain."""
    if not maps:
        raise DimensionMismatch("pairing needs at least one map")
    dom, mode = maps[0].dom, maps[0].mode
    for f in maps:
        if f.dom != dom or f.mode != mode:
            raise DimensionMismatch("paired maps must share a domain and mode")
    comps = tuple(c for f in maps for c in f.components)
    return _checked_map(dom, len(comps), comps, mode)


@lru_cache(maxsize=None)
def polymap_proj(dom: int, lo: int, hi: int, mode: str) -> PolyMap:
    """Coordinate-slice projection onto [lo, hi)."""
    if not 0 <= lo <= hi <= dom:
        raise DimensionMismatch(f"slice [{lo},{hi}) invalid for dimension {dom}")
    return coordinate_map(dom, tuple(range(lo, hi)), mode)


def polymap_product(f: PolyMap, g: PolyMap) -> PolyMap:
    """f x g on the concatenated domain: each factor after the projection onto its slice."""
    dom = f.dom + g.dom
    return polymap_pair(
        polymap_compose(polymap_proj(dom, 0, f.dom, f.mode), f),
        polymap_compose(polymap_proj(dom, f.dom, dom, f.mode), g),
    )


def polymap_add(f: PolyMap, g: PolyMap) -> PolyMap:
    """Pointwise sum of parallel maps (the left-additive structure)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DimensionMismatch("pointwise sum needs parallel maps")
    comps = tuple(poly_add(a, b) for a, b in zip(f.components, g.components))
    return PolyMap(f.dom, f.cod, comps, f.mode)


def linear_map(dom: int, matrix: Sequence[Sequence], mode: str) -> PolyMap:
    """The map whose i-th output is sum_j matrix[i][j] * x_j."""
    comps = []
    for row in matrix:
        items = []
        for j, c in enumerate(row):
            ev = [0] * dom
            ev[j] = 1
            items.append((tuple(ev), c))
        comps.append(Poly.from_terms(dom, items, mode))
    return PolyMap(dom, len(comps), tuple(comps), mode)


def eval_polymap(f: PolyMap, point: Sequence) -> tuple:
    """Exact value of each component at a point of scalars; an integral value is an int.

    The point is written as integer numerators over one common denominator d.
    A term of degree k then contributes c * (its numerators' monomial) / d^k, so
    each term is scaled by d^(D - k) to the component's total degree D (its
    first term's, in graded-lex order) and by the lcm of the coefficient
    denominators, and each component divides once, by that lcm times d^D.
    """
    if len(point) != f.dom:
        raise DimensionMismatch(f"{f.dom} variables but point of length {len(point)}")
    vals = [scalars.coerce(f.mode, v) for v in point]
    d = lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (d // v.denominator) for v in vals]
    out = []
    for p in f.components:
        top = sum(p.terms[0][0]) if p.terms else 0
        scale = lcm(*(c.denominator for _, c in p.terms))
        total = 0
        for ev, c in p.terms:
            total += c.numerator * (scale // c.denominator) * d ** (top - sum(ev)) * prod(map(pow, nums, ev))
        value = Fraction(total, scale * d**top)
        out.append(value if value.denominator != 1 else value.numerator)
    return tuple(out)


@lru_cache(maxsize=None)
def block_swap(w: int, x: int, y: int, z: int, mode: str) -> PolyMap:
    """(W, X, Y, Z) -> (W, Y, X, Z): swap the two middle coordinate blocks."""
    wx, wxy = w + x, w + x + y
    return coordinate_map(wxy + z, (*range(w), *range(wx, wxy), *range(w, wx), *range(wxy, wxy + z)), mode)


# ---------------------------------------------------------------------------
# Printing (canonical form: graded-lex term order, explicit *)


def poly_to_str(
    p: Poly, var_names: Sequence[str] | None = None, display_order: Sequence[int] | None = None
) -> str:
    """Graded-lex terms joined by " + " and " - "; each power x_i^e is formatted once per call."""
    if not p.terms:
        return "0"
    if var_names is None:
        var_names = [f"x{i}" for i in range(p.nvars)]
    order = range(p.nvars) if display_order is None else list(display_order)
    powers: list = [None] * p.nvars  # powers[i][e]: x_i^e as printed, filled as first met
    out = []
    for ev, c in p.terms:
        body = []
        if c < 0:
            c = -c
            out.append(" - ")
        else:
            out.append(" + ")
        if c != 1:
            body.append(str(c))
        for i in order:
            e = ev[i]
            if e:
                known = powers[i]
                if known is None:
                    known = powers[i] = {}
                factor = known.get(e)
                if factor is None:
                    factor = known[e] = var_names[i] if e == 1 else f"{var_names[i]}^{e}"
                body.append(factor)
        out.append("*".join(body) if body else "1")
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def polymap_to_str(
    f: PolyMap, var_names: Sequence[str] | None = None, display_order: Sequence[int] | None = None
) -> str:
    return "; ".join(poly_to_str(c, var_names, display_order) for c in f.components)


# ---------------------------------------------------------------------------
# Seeded random generation


def random_polymap(dom: int, cod: int, max_degree: int, rng: Random, mode: str) -> PolyMap:
    """cod components of one to three random terms each, of degree <= max_degree; drawn from rng only.

    Each draw is the randint or randrange it replaces (see scalars.randbelow):
    the term count, then per term its degree, one variable per unit of degree
    and its coefficient.  The drawn terms are valid by construction, so each
    component is summed and sorted as Poly.from_terms would, without its
    per-term coercion and checks.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    lo = 0 if scalars.check_mode(mode) == scalars.NATURAL else -scalars.COEFF_BOUND
    span, bits, below = scalars.COEFF_BOUND - lo + 1, rng.getrandbits, scalars.randbelow
    comps = []
    for _ in range(cod):
        items = []
        for _ in range(1 + below(bits, 3)):
            degree = below(bits, max_degree + 1)
            ev = [0] * dom
            for _ in range(degree if dom else 0):
                ev[below(bits, dom)] += 1
            items.append((tuple(ev), lo + below(bits, span)))
        comps.append(Poly(dom, _canonical(_add_terms({}, items)), mode))
    return PolyMap(dom, cod, tuple(comps), mode)
