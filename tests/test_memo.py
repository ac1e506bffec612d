"""Memoized T, D and mu, and the structural maps built once per (dimension, mode).

``cdc_D``, ``cdc_T`` and ``diffobj_mu`` cache their result for as long as
their input lives; the structural builders cache per argument tuple.  The
uncached function stays reachable as ``__wrapped__`` and is the reference.
"""

import gc
import weakref
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat import scalars
from tancat.cdc import cdc_D, cdc_T, point_proj
from tancat.diffobj import DiffObject, diffobj_mu
from tancat.poly import identity_map, polymap_proj, random_polymap

MODES = (scalars.RATIONAL, scalars.NATURAL)


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
    for memo in (cdc_D, cdc_T):
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


@pytest.mark.parametrize("memo", [cdc_D, cdc_T], ids=["D", "T"])
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
