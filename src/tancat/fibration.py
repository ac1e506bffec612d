"""The simple fibration: context-indexed polynomial maps and their calculus.

Objects are pairs (context A, payload X); a morphism (A, X) -> (B, Y) is a
pair (f : A -> B, g : A x X -> Y).  Composition substitutes the context
image, the differential acts blockwise through the exchange permutation,
and each fibre over a fixed context carries its own tangent structure: the
payload-block analogue of the base model's, with the context inert.  The
vertical tangent is exactly the partial derivative in the payload
directions, with the context direction frozen to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from . import scalars
from .errors import DimensionMismatch, PreconditionFailure
from .cdc import PolyTangentModel, cdc_D, memo_by_input
from .model import tangent_axioms_checks
from .params import SuiteParams
from .parser import MAX_VARIABLES
from .poly import (
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
from .report import CheckSet


@dataclass(frozen=True)
class SimpleObj:
    context: int
    payload: int


@dataclass(frozen=True)
class SimpleMor:
    f: PolyMap
    g: PolyMap

    def __str__(self) -> str:
        return f"({self.f} | {self.g})"


def simple_identity(obj: SimpleObj, mode: str = scalars.RATIONAL) -> SimpleMor:
    n = obj.context + obj.payload
    return SimpleMor(
        identity_map(obj.context, mode),
        polymap_proj(n, obj.context, n, mode),
    )


def simple_compose(m1: SimpleMor, m2: SimpleMor) -> SimpleMor:
    """(f, g)(f', g') = (ff', <pi0 f, g> g')."""
    if m1.f.cod != m2.f.dom or m1.g.cod != m2.g.dom - m2.f.dom:
        raise DimensionMismatch("object-mismatch in simple composition")
    ctx = polymap_proj(m1.g.dom, 0, m1.f.dom, m1.f.mode)
    mixed = polymap_pair(polymap_compose(ctx, m1.f), m1.g)
    return SimpleMor(polymap_compose(m1.f, m2.f), polymap_compose(mixed, m2.g))


def simple_D(m: SimpleMor) -> SimpleMor:
    """D(f, g) := (D(f), ex D(g)) over the doubled object (A x A, X x X)."""
    a = m.f.dom
    x = m.g.dom - a
    return SimpleMor(
        cdc_D(m.f), polymap_compose(block_swap(a, a, x, x, m.f.mode), cdc_D(m.g))
    )


def vertical_tangent_map(a: int, g: PolyMap) -> PolyMap:
    """Payload tangent of g : A x X -> Y as a map A x (X x X) -> Y x Y.

    The tangent half is D(g) at (0, v, a, x): the context direction frozen to zero.
    """
    x = g.dom - a
    dom = a + 2 * x
    frozen = coordinate_map(dom, (*(None,) * a, *range(a, a + x), *range(a), *range(a + x, dom)), g.mode)
    point = coordinate_map(dom, (*range(a), *range(a + x, dom)), g.mode)
    return polymap_pair(polymap_compose(frozen, cdc_D(g)), polymap_compose(point, g))


def vertical_T(context: int, m: SimpleMor) -> SimpleMor:
    """Fibrewise tangent of a vertical morphism; payload dims double."""
    if m.f != identity_map(context, m.f.mode):
        raise PreconditionFailure("not-vertical: first component must be the identity")
    return SimpleMor(m.f, vertical_tangent_map(context, m.g))


# ---------------------------------------------------------------------------
# The simple fibration as a model of the CD axioms


class SimpleCDModel:
    """The simple fibration as a Cartesian differential category under simple_D.

    Sums are pointwise on both components; products concatenate contexts
    and payloads blockwise; points are morphisms out of the unit (0, 0).
    Random objects have contexts 0-2 and payloads 1-2, both at most max_dim.
    """

    unit = SimpleObj(0, 0)

    def __init__(self, mode: str, max_dim: int):
        scalars.check_mode(mode)
        self.mode = mode
        self.max_dim = max_dim

    def D(self, m: SimpleMor) -> SimpleMor:
        return simple_D(m)

    def compose(self, m1: SimpleMor, m2: SimpleMor) -> SimpleMor:
        return simple_compose(m1, m2)

    def pair(self, *mors: SimpleMor) -> SimpleMor:
        return SimpleMor(
            polymap_pair(*(m.f for m in mors)), polymap_pair(*(m.g for m in mors))
        )

    def product(self, *objs: SimpleObj) -> SimpleObj:
        return SimpleObj(sum(o.context for o in objs), sum(o.payload for o in objs))

    def proj(self, objs: Sequence[SimpleObj], i: int) -> SimpleMor:
        """Projection out of product(*objs) onto its i-th factor."""
        prod = self.product(*objs)
        before = self.product(*objs[:i])
        a, x = before.context, prod.context + before.payload
        return SimpleMor(
            polymap_proj(prod.context, a, a + objs[i].context, self.mode),
            polymap_proj(prod.context + prod.payload, x, x + objs[i].payload, self.mode),
        )

    def add(self, m1: SimpleMor, m2: SimpleMor) -> SimpleMor:
        return SimpleMor(polymap_add(m1.f, m2.f), polymap_add(m1.g, m2.g))

    def zero(self, dom: SimpleObj, cod: SimpleObj) -> SimpleMor:
        return SimpleMor(
            zero_map(dom.context, cod.context, self.mode),
            zero_map(dom.context + dom.payload, cod.payload, self.mode),
        )

    def identity(self, obj: SimpleObj) -> SimpleMor:
        return simple_identity(obj, self.mode)

    def random_obj(self, rng) -> SimpleObj:
        top = min(2, self.max_dim)
        return SimpleObj(rng.randint(0, top), rng.randint(1, top))

    def random_mor(self, dom: SimpleObj, cod: SimpleObj, rng, max_degree: int) -> SimpleMor:
        n = dom.context + dom.payload
        return SimpleMor(
            random_polymap(dom.context, cod.context, max_degree, rng, self.mode),
            random_polymap(n, cod.payload, max_degree, rng, self.mode),
        )

    def random_point(self, obj: SimpleObj, rng) -> SimpleMor:
        values = [scalars.random_scalar(self.mode, rng) for _ in range(obj.context + obj.payload)]
        return SimpleMor(
            constant_map(0, values[: obj.context], self.mode),
            constant_map(0, values[obj.context :], self.mode),
        )


# ---------------------------------------------------------------------------
# The fibre over a fixed context as a tangent model


class FibreTangentModel(PolyTangentModel):
    """Tangent structure of the fibre over a fixed context.

    Objects are payload dims; a morphism X -> Y is a PolyMap (A + X) -> Y.
    Structural maps are the base model's, shifted past the context so that
    it passes through untouched, and the tangent of a morphism is the
    partial derivative in the payload directions.
    """

    def __init__(self, context: int, mode: str = scalars.RATIONAL):
        super().__init__(mode)
        self.context = context
        # T held weakly per model, as cdc_T is: naturality asks for T(T f) twice per instance
        self._t = memo_by_input(partial(vertical_tangent_map, context))

    def _embed(self, f: PolyMap) -> PolyMap:
        a = self.context
        return polymap_compose(polymap_proj(a + f.dom, a, a + f.dom, self.mode), f)

    def t_mor(self, g: PolyMap) -> PolyMap:
        return self._t(g)

    def compose(self, f: PolyMap, g: PolyMap) -> PolyMap:
        ctx = polymap_proj(f.dom, 0, self.context, self.mode)
        return polymap_compose(polymap_pair(ctx, f), g)

    def random_mor(self, x: int, y: int, rng, max_degree: int) -> PolyMap:
        return random_polymap(self.context + x, y, max_degree, rng, self.mode)


# the payload bound and instance count of the fibre command; the fibration suite caps its fibre rows by them
FIBRE_PARAMS = SuiteParams(max_dim=2, instances=25)


def verify_fibre_axioms(context: int, params: SuiteParams = FIBRE_PARAMS) -> CheckSet:
    """Run the full tangent-axioms suite inside the fibre over a context.

    Payload dimensions go up to params.max_dim and maps have degree at most
    params.max_degree; params.fault is not read.
    """
    if type(context) is not int or not 0 <= context <= MAX_VARIABLES:  # refuses a bool too
        # named as the CLI's fibre command sets it
        raise ValueError(f"invalid-params: context_dim must be an integer from 0 to {MAX_VARIABLES}")
    return tangent_axioms_checks(FibreTangentModel(context, params.mode), params)
