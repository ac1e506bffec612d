"""The fibred pairings, checked by their universal property.

A pairing <u, v> into a pullback P is the unique map whose projections give
back u and v, and it exists only when u and v agree over the base.  These
tests check both halves for E_2 and T(E_2) over bundles with identity and
non-identity trivializations, and for T(T_2) in the polynomial and fibre
tangent models.
"""

from random import Random

import pytest

from tancat import scalars
from tancat.bundles import (
    assemble_tangent,
    bundle_pi,
    pair_into_e2,
    pair_into_t_e2,
    standard_bundle,
    tangent_bundle_of,
    tangent_of_bundle,
    whitney_sum,
)
from tancat.cdc import PolyTangentModel, cdc_T
from tancat.errors import DimensionMismatch, PreconditionFailure
from tancat.fibration import FibreTangentModel
from tancat.poly import polymap_compose, polymap_pair, random_polymap

MODES = (scalars.RATIONAL, scalars.NATURAL)

BUNDLES = {
    "standard-1-2": lambda mode: standard_bundle(1, 2, mode),
    "tangent-2": lambda mode: tangent_bundle_of(2, mode),
    "T[standard-1-1]": lambda mode: tangent_of_bundle(standard_bundle(1, 1, mode)),
    "standard-1-1 (+) tangent-1": lambda mode: whitney_sum(
        standard_bundle(1, 1, mode), tangent_bundle_of(1, mode)
    ),
}


def _rand(rng, mode, dom, cod):
    return random_polymap(dom, cod, 2, rng, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("label", sorted(BUNDLES))
def test_pair_into_e2_is_the_pullback_pairing(label, mode):
    b = BUNDLES[label](mode)
    m, k = b.base, b.fibre
    rng = Random(f"e2:{label}:{mode}")
    for _ in range(3):
        x, x2 = _rand(rng, mode, 2, m), _rand(rng, mode, 2, m)
        u = polymap_compose(polymap_pair(x, _rand(rng, mode, 2, k)), b.triv_inv)
        v = polymap_compose(polymap_pair(x, _rand(rng, mode, 2, k)), b.triv_inv)
        paired = pair_into_e2(b, u, v)
        assert polymap_compose(paired, bundle_pi(b, 0)) == u
        assert polymap_compose(paired, bundle_pi(b, 1)) == v
        if x2 != x:
            elsewhere = polymap_compose(polymap_pair(x2, _rand(rng, mode, 2, k)), b.triv_inv)
            with pytest.raises(PreconditionFailure):
                pair_into_e2(b, u, elsewhere)
    with pytest.raises(DimensionMismatch):
        pair_into_e2(b, u, polymap_pair(v, v))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("label", sorted(BUNDLES))
def test_pair_into_t_e2_is_the_tangent_pullback_pairing(label, mode):
    b = BUNDLES[label](mode)
    m, k = b.base, b.fibre
    rng = Random(f"t-e2:{label}:{mode}")
    for _ in range(3):
        dx, x = _rand(rng, mode, 2, m), _rand(rng, mode, 2, m)
        u = assemble_tangent(b, dx, x, _rand(rng, mode, 2, k), _rand(rng, mode, 2, k))
        v = assemble_tangent(b, dx, x, _rand(rng, mode, 2, k), _rand(rng, mode, 2, k))
        paired = pair_into_t_e2(b, u, v)
        assert polymap_compose(paired, cdc_T(bundle_pi(b, 0))) == u
        assert polymap_compose(paired, cdc_T(bundle_pi(b, 1))) == v
        other = _rand(rng, mode, 2, m)
        if other != dx:
            moved = assemble_tangent(b, other, x, _rand(rng, mode, 2, k), _rand(rng, mode, 2, k))
            with pytest.raises(PreconditionFailure):
                pair_into_t_e2(b, u, moved)
        if other != x:
            moved = assemble_tangent(b, dx, other, _rand(rng, mode, 2, k), _rand(rng, mode, 2, k))
            with pytest.raises(PreconditionFailure):
                pair_into_t_e2(b, u, moved)
    with pytest.raises(DimensionMismatch):
        pair_into_t_e2(b, u, polymap_pair(v, v))


MODELS = {
    "poly": PolyTangentModel,
    "fibre-over-1": lambda mode: FibreTangentModel(1, mode),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_pair_t_t2_is_the_tangent_pullback_pairing(name, mode):
    model = MODELS[name](mode)
    rng = Random(f"t-t2:{name}:{mode}")
    for m in (1, 2):
        t_pis = [model.t_mor(pi) for pi in model.t_n(m, 2).projections]
        for _ in range(3):
            du, dx, u, x, du2, u2, other = (model.random_mor(2, m, rng, 2) for _ in range(7))
            f = polymap_pair(du, dx, u, x)
            g = polymap_pair(du2, dx, u2, x)
            paired = model.pair_t_t2(m, f, g)
            assert model.compose(paired, t_pis[0]) == f
            assert model.compose(paired, t_pis[1]) == g
            if other != dx:
                with pytest.raises(PreconditionFailure):
                    model.pair_t_t2(m, f, polymap_pair(du2, other, u2, x))
            if other != x:
                with pytest.raises(PreconditionFailure):
                    model.pair_t_t2(m, f, polymap_pair(du2, dx, u2, other))
        with pytest.raises(DimensionMismatch):
            model.pair_t_t2(m, f, polymap_pair(g, x))
