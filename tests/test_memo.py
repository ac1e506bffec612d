"""Memoized T, D and mu, the per-bundle maps, and the structural maps built once per (dimension, mode).

``cdc_D``, ``cdc_T``, a fibre model's ``t_mor``, ``diffobj_mu`` and the bundle
maps (``tangent_triv_inv``, ``mu_map``, ``bracket_legs``, ``display_blocks``,
``zeta_fibre``) cache their result for as long as their input lives; the
structural builders cache per argument tuple.  The uncached function stays
reachable as ``__wrapped__`` and is the reference.
"""

import gc
import weakref
from dataclasses import replace
from functools import partial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat import scalars
from tancat.bundles import (
    bracket_legs,
    bundle_pi,
    display_blocks,
    display_bundle,
    make_bundle,
    mu_map,
    standard_bundle,
    tangent_bundle_of,
    tangent_triv_inv,
    zeta_fibre,
)
from tancat.cdc import cdc_D, cdc_T, point_proj
from tancat.diffobj import DiffObject, diffobj_mu
from tancat.fibration import FibreTangentModel, vertical_tangent_map
from tancat.poly import identity_map, linear_map, polymap_compose, polymap_pair, polymap_proj, random_polymap

MODES = (scalars.RATIONAL, scalars.NATURAL)

# one fibre model per mode, over a context of 1: its T is memoized per model
FIBRE_MODELS = {mode: FibreTangentModel(1, mode) for mode in MODES}


def fibre_t(f):
    return FIBRE_MODELS[f.mode].t_mor(f)


fibre_t.__wrapped__ = partial(vertical_tangent_map, 1)


def maps():
    return st.builds(
        lambda dom, cod, seed, mode: random_polymap(dom, cod, 3, Random(seed), mode),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 10**6),
        st.sampled_from(MODES),
    )


def diffobjs():
    def build(k, seed, mode):
        sigma = random_polymap(2 * k, k, 2, Random(seed), mode)
        zeta = random_polymap(0, k, 0, Random(seed + 1), mode)
        return DiffObject(k, sigma, zeta, polymap_proj(2 * k, 0, k, mode), mode)

    return st.builds(build, st.integers(1, 2), st.integers(0, 10**6), st.sampled_from(MODES))


@settings(max_examples=60)
@given(maps())
def test_d_and_t_equal_their_uncached_results(f):
    copy = replace(f)
    assert copy == f and copy is not f
    for memo in (cdc_D, cdc_T) + ((fibre_t,) if f.dom else ()):
        expected = memo.__wrapped__(f)
        assert memo(f) == expected
        assert memo(copy) is memo(f)
        assert str(memo(copy)) == str(expected)


@settings(max_examples=30)
@given(diffobjs())
def test_mu_equals_its_uncached_result(o):
    copy = replace(o)
    assert copy == o and copy is not o
    expected = diffobj_mu.__wrapped__(o)
    assert diffobj_mu(o) == expected
    assert diffobj_mu(copy) is diffobj_mu(o)


@pytest.mark.parametrize("memo", [cdc_D, cdc_T, fibre_t], ids=["D", "T", "fibre_T"])
def test_entry_lives_as_long_as_its_input(memo):
    f = random_polymap(2, 2, 3, Random(1234), scalars.RATIONAL)
    r = weakref.ref(memo(f))
    gc.collect()
    assert r() is not None  # only the cache holds the result
    del f
    gc.collect()
    assert r() is None


def test_mu_entry_lives_as_long_as_its_object():
    sigma = random_polymap(2, 1, 2, Random(99), scalars.RATIONAL)
    zeta = random_polymap(0, 1, 0, Random(98), scalars.RATIONAL)
    o = DiffObject(1, sigma, zeta, polymap_proj(2, 0, 1, scalars.RATIONAL), scalars.RATIONAL)
    r = weakref.ref(diffobj_mu(o))
    gc.collect()
    assert r() is not None
    del o
    gc.collect()
    assert r() is None


# (memo, its uncached reference, the arguments after the bundle)
BUNDLE_MEMOS = [
    (tangent_triv_inv, tangent_triv_inv.__wrapped__, ()),
    (mu_map, mu_map.__wrapped__, ()),
    (bracket_legs, bracket_legs.__wrapped__, ()),
    (display_blocks, display_blocks.__wrapped__, ()),
    (zeta_fibre, zeta_fibre.__wrapped__, ()),
]
BUNDLE_IDS = ["tangent_triv_inv", "mu_map", "bracket_legs", "display_blocks", "zeta_fibre"]


def summand_projection(b, which, n=2):
    """bundle_pi built afresh: <x, a_which> : E_n -> (x, a), then the inverse trivialization."""
    dim, lo = b.base + n * b.fibre, b.base + which * b.fibre
    pair = polymap_pair(polymap_proj(dim, 0, b.base, b.mode), polymap_proj(dim, lo, lo + b.fibre, b.mode))
    return polymap_compose(pair, b.triv_inv)


# bundle_pi keeps no cache: equal bundles give equal, not shared, projections
BUNDLE_MAPS = BUNDLE_MEMOS + [
    (bundle_pi, summand_projection, (0,)),
    (bundle_pi, summand_projection, (1,)),
    (bundle_pi, summand_projection, (2, 3)),
]
BUNDLE_MAP_IDS = BUNDLE_IDS + ["pi0", "pi1", "pi2-of-3"]


def corrupted_lambda(mode):
    """standard-1-1 with the lift (x, a) |-> (0, a, x, a), as the corrupted-lambda fault builds it."""
    sigma_fib, zeta_fib, lam_tan, _ = display_blocks(standard_bundle(1, 1, mode))
    return display_bundle(1, 1, sigma_fib, zeta_fib, lam_tan, lam_tan)


def sheared():
    """standard-1-1 with the trivialization (x, a) |-> (x, a + x), built from maps no other cache holds."""
    std = standard_bundle(1, 1, scalars.RATIONAL)
    t = linear_map(2, [[1, 0], [1, 1]], scalars.RATIONAL)
    t_inv = linear_map(2, [[1, 0], [-1, 1]], scalars.RATIONAL)
    return make_bundle(1, 1, std.sigma, std.zeta, std.lam, (t, t_inv), scalars.RATIONAL)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("memo, reference, args", BUNDLE_MAPS, ids=BUNDLE_MAP_IDS)
def test_bundle_maps_equal_their_uncached_results(memo, reference, args, mode):
    bundles = [standard_bundle(1, 1, mode), tangent_bundle_of(2, mode), corrupted_lambda(mode)]
    for b in bundles + ([sheared()] if mode == scalars.RATIONAL else []):
        copy = replace(b)
        assert copy == b and copy is not b
        assert memo(b, *args) == reference(b, *args)
        assert memo(copy, *args) == memo(b, *args)
        if memo is not bundle_pi:
            assert memo(copy, *args) is memo(b, *args)


@pytest.mark.parametrize("memo, reference, args", BUNDLE_MEMOS, ids=BUNDLE_IDS)
def test_bundle_entry_lives_as_long_as_its_bundle(memo, reference, args):
    b = sheared()
    assert memo(b, *args) == reference(b, *args)
    got = memo(b, *args)
    r = weakref.ref(got[0] if isinstance(got, tuple) else got)  # a tuple has no weak reference
    del got
    gc.collect()
    assert r() is not None  # only the cache holds the result
    del b
    gc.collect()
    assert r() is None


@pytest.mark.parametrize("mode", MODES)
def test_corrupted_bundle_maps_stay_apart_from_the_clean_ones(mode):
    clean, bad = standard_bundle(1, 1, mode), corrupted_lambda(mode)
    assert mu_map(clean) == mu_map.__wrapped__(clean)
    assert mu_map(bad) == mu_map.__wrapped__(bad)
    assert mu_map(bad) != mu_map(clean)
    for memo, reference, args in BUNDLE_MEMOS:  # the lift is the only difference
        assert memo(bad, *args) == reference(bad, *args)
        assert (memo(bad, *args) == memo(clean, *args)) is (memo not in (mu_map, display_blocks))


def test_structural_maps_are_built_once_per_dimension_and_mode():
    rational, natural = point_proj(2, scalars.RATIONAL), point_proj(2, scalars.NATURAL)
    assert point_proj(2, scalars.RATIONAL) is rational
    assert point_proj(2, scalars.NATURAL) is natural
    assert rational != natural
    # interned variables: projections and identities share one-term polynomials
    assert identity_map(4, scalars.RATIONAL).components[2] is rational.components[0]


def test_bad_arguments_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown scalar mode"):
            point_proj(2, "complex")
        with pytest.raises(ValueError, match="invalid for dimension"):
            polymap_proj(2, 0, 3, scalars.RATIONAL)
        # maps with no components check their mode too
        with pytest.raises(ValueError, match="unknown scalar mode"):
            polymap_proj(4, 2, 2, "bogus")
        with pytest.raises(ValueError, match="unknown scalar mode"):
            point_proj(0, "bogus")

