"""Simple fibration over a context: composition, differentials, verticality.

Layout notes: a simple morphism is (f | g) with f on contexts and g on
context + payload.  simple_D doubles both blocks, giving g the domain
(du_ctx, ctx, du_payload, payload) after the exchange permutation.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat import fibration, scalars
from tancat.cdc import cdc_D, cdc_T, cdc_ell, cdc_flip, point_proj, tangent_plus, tangent_zero
from tancat.errors import DimensionMismatch, PreconditionFailure
from tancat.fibration import (
    FibreTangentModel,
    SimpleCDModel,
    SimpleMor,
    SimpleObj,
    simple_D,
    simple_compose,
    simple_identity,
    verify_fibre_axioms,
    vertical_T,
    vertical_tangent_map,
)
from tancat.model import cdc_axioms_checks
from tancat.params import SuiteParams
from tancat.parser import parse_polymap
from tancat.poly import (
    PolyMap,
    coordinate_map,
    identity_map,
    poly_shift_vars,
    polymap_compose,
    polymap_to_str,
    random_polymap,
)
from tancat.suites import run_suite

R = scalars.RATIONAL


def mor(f_expr, f_dom, g_expr, g_dom):
    return SimpleMor(parse_polymap(f_expr, f_dom, R), parse_polymap(g_expr, g_dom, R))


def test_compose_frozen_example():
    scale = mor("x0", 1, "x0*x1", 2)
    affine = mor("x0^2", 1, "x0 + x1", 2)
    assert str(simple_compose(scale, affine)) == "(x0^2 | x0*x1 + x0)"


def test_identity_laws():
    ident = simple_identity(SimpleObj(1, 1), R)
    assert str(ident) == "(x0 | x1)"
    m = mor("x0", 1, "x0*x1^2", 2)
    assert simple_compose(ident, m) == m
    assert simple_compose(m, ident) == m


def test_compose_needs_matching_objects():
    m1 = mor("x0", 1, "x0*x1", 2)
    m2 = mor("x0", 1, "x0 + x1 + x2", 3)
    with pytest.raises(DimensionMismatch):
        simple_compose(m1, m2)


def test_simple_d_of_identity():
    d = simple_D(simple_identity(SimpleObj(1, 1), R))
    # context part pi0 of the doubled context; payload part the payload tangent
    assert str(d) == "(x0 | x2)"


def test_simple_d_product_rule():
    d = simple_D(mor("x0", 1, "x0*x1", 2))
    assert polymap_to_str(d.g) == "x0*x3 + x1*x2"


def test_simple_d_of_constant_payload():
    d = simple_D(mor("x0", 1, "5", 2))
    assert polymap_to_str(d.g) == "0"


def test_vertical_tangent_frozen_examples():
    assert polymap_to_str(vertical_tangent_map(1, parse_polymap("x0*x1", 2, R))) == "x0*x1; x0*x2"
    assert polymap_to_str(vertical_tangent_map(1, parse_polymap("x0^2", 2, R))) == "0; x0^2"
    assert polymap_to_str(vertical_tangent_map(1, parse_polymap("x1^2", 2, R))) == "2*x1*x2; x2^2"


def test_empty_context_recovers_tangent_functor():
    rng = Random(19)
    for _ in range(10):
        g = random_polymap(rng.randint(1, 3), rng.randint(1, 2), 3, rng, R)
        assert vertical_tangent_map(0, g) == cdc_T(g)


def test_vertical_chain_rule():
    rng = Random(29)
    for _ in range(15):
        a = rng.randint(1, 2)
        x, y, z = (rng.randint(1, 2) for _ in range(3))
        ident = identity_map(a, R)
        m1 = SimpleMor(ident, random_polymap(a + x, y, 3, rng, R))
        m2 = SimpleMor(ident, random_polymap(a + y, z, 3, rng, R))
        lhs = vertical_T(a, simple_compose(m1, m2))
        rhs = simple_compose(vertical_T(a, m1), vertical_T(a, m2))
        assert lhs == rhs


def test_vertical_requires_identity_context():
    shift = mor("x0^2", 1, "x1", 2)
    with pytest.raises(PreconditionFailure):
        vertical_T(1, shift)


def test_pairing_and_projections():
    m1 = mor("x0", 1, "x0*x1", 2)
    m2 = mor("x0", 1, "x1^2", 2)
    model = SimpleCDModel(R)
    paired = model.pair(m1, m2)
    unit = SimpleObj(1, 1)
    back0 = simple_compose(paired, model.proj((unit, unit), 0))
    back1 = simple_compose(paired, model.proj((unit, unit), 1))
    assert back0 == m1 and back1 == m2


def test_fibre_axioms_smoke():
    rep = verify_fibre_axioms(1, SuiteParams(max_dim=2, instances=8, seed=3))
    assert rep.all_passed, {c.name for c in rep.checks if c.status != "pass"}


def cd_failures(model, D):
    """The CD rows that a fibre model fails under D, and the number of rows run."""
    params = SuiteParams(mode=model.mode, max_dim=2, instances=25)
    rep = cdc_axioms_checks(model, D, params, "fibre-cd").report("fibre-cd", {})
    return {c.name for c in rep.checks if c.status != "pass"}, len(rep.checks)


@pytest.mark.parametrize("mode", scalars.MODES)
@pytest.mark.parametrize("context", [1, 2])
def test_fibres_are_cartesian_differential_categories(context, mode):
    """The fibre is a CD category under D(g) = T(g);p-hat, and not under a D that leaks into the context."""
    model = FibreTangentModel(context, mode)

    def vertical_D(g):
        return model.compose(model.t_mor(g), model.proj((g.cod, g.cod), 0))

    def leaky_D(g):
        # cdc_D(g) with the first payload direction fed into every context direction
        a, x = context, g.dom - context
        images = (*(a,) * a, *range(a, a + x), *range(a), *range(a + x, a + 2 * x))
        return polymap_compose(coordinate_map(a + 2 * x, images, mode), cdc_D(g))

    assert cd_failures(model, vertical_D) == (set(), 13)
    assert "cd5-chain" in cd_failures(model, leaky_D)[0]


@pytest.mark.parametrize("context", [True, False, 1.0, "1"])
def test_fibre_context_must_be_an_int(context):
    with pytest.raises(ValueError, match="invalid-params: context_dim must be an integer"):
        verify_fibre_axioms(context)


def shifted_embed(a, f):
    """f moved past a context of a by shifting each component by hand: the reference for _embed."""
    comps = tuple(poly_shift_vars(c, a, a + f.dom) for c in f.components)
    return PolyMap(a + f.dom, f.cod, comps, f.mode)


@pytest.mark.parametrize("mode", scalars.MODES)
@pytest.mark.parametrize("context", [0, 1, 2])
@settings(max_examples=40, deadline=None)
@given(dom=st.integers(0, 3), cod=st.integers(0, 3), seed=st.integers(0, 10**6))
def test_embed_equals_the_shifted_components(context, mode, dom, cod, seed):
    model = FibreTangentModel(context, mode)
    f = random_polymap(dom, cod, 3, Random(seed), mode)
    assert model._embed(f) == shifted_embed(context, f)
    for build in (point_proj, tangent_zero, tangent_plus, cdc_ell, cdc_flip, identity_map):
        structural = build(dom, mode)
        assert model._embed(structural) == shifted_embed(context, structural)


def test_fibration_suite_draws_maps_of_the_degree_it_is_given(monkeypatch):
    # the simple-* and fibre[*] rows draw through fibration.random_polymap
    degrees = []

    def spy(dom, cod, max_degree, rng, mode):
        degrees.append(max_degree)
        return random_polymap(dom, cod, max_degree, rng, mode)

    monkeypatch.setattr(fibration, "random_polymap", spy)
    rep = run_suite("fibration", max_degree=1, instances=3)
    assert rep.all_passed, {c.name for c in rep.checks if c.status != "pass"}
    assert degrees and max(degrees) == 1


def test_fibre_model_matches_base_model_at_context_zero():
    # morphisms of the fibre model are bare payload maps
    fm = FibreTangentModel(0, R)
    g = parse_polymap("x0^2", 1, R)
    assert fm.t_mor(g) == cdc_T(g)
