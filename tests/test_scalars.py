"""Semiring scalar layer: coercion and bounded draws."""

from fractions import Fraction
from random import Random

import pytest

from tancat import scalars
from tancat.errors import SemiringViolation


def test_modes_inventory():
    assert scalars.MODES == (scalars.RATIONAL, scalars.NATURAL)
    with pytest.raises(ValueError):
        scalars.check_mode("real")


def test_coerce_rational_accepts_ints_and_fractions():
    assert scalars.coerce(scalars.RATIONAL, 3) == Fraction(3)
    assert scalars.coerce(scalars.RATIONAL, Fraction(-7, 2)) == Fraction(-7, 2)
    # integral values are stored as int: equal, and hashed the same, as the Fraction
    for value in (3, Fraction(6, 2), Fraction(-4), True):
        got = scalars.coerce(scalars.RATIONAL, value)
        assert type(got) is int and got == value and hash(got) == hash(Fraction(value))


def test_coerce_natural_rejects_negative_and_fractional():
    assert scalars.coerce(scalars.NATURAL, 5) == 5
    with pytest.raises(SemiringViolation):
        scalars.coerce(scalars.NATURAL, -1)
    with pytest.raises(SemiringViolation):
        scalars.coerce(scalars.NATURAL, Fraction(1, 2))


def test_coerce_rejects_floats():
    # exactness contract: floats never silently enter the scalar ring
    with pytest.raises(TypeError):
        scalars.coerce(scalars.RATIONAL, 0.5)


def test_random_scalar_ranges_and_determinism():
    bound = scalars.COEFF_BOUND
    for mode, lo in ((scalars.NATURAL, 0), (scalars.RATIONAL, -bound)):
        rng, again = Random(11), Random(11)
        draws = [scalars.random_scalar(mode, rng) for _ in range(200)]
        assert draws == [scalars.random_scalar(mode, again) for _ in range(200)]
        assert set(draws) == set(range(lo, bound + 1))
        assert all(type(d) is int for d in draws)

