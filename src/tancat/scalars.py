"""Scalar semirings: exact rationals, and naturals without subtraction.

A scalar is an ``int``, or a ``Fraction`` when it is not integral (rational
mode), or a nonnegative ``int`` (natural mode); the mode tag lives on the
enclosing polynomial, not on the scalar itself.  Addition and multiplication
are the built-in operators, which both semirings are closed under; only
coercion and random drawing consult the mode.  The naturals have no
negation: the parser refuses '-' in natural mode before any arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .errors import SemiringViolation

RATIONAL = "rational"
NATURAL = "natural"
MODES = (RATIONAL, NATURAL)

# random coefficients lie in [-COEFF_BOUND, COEFF_BOUND], or [0, COEFF_BOUND] in natural mode
COEFF_BOUND = 5


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def coerce(mode: str, value) -> "Fraction | int":
    """Normalize an int or Fraction into the semiring of ``mode``.

    An integral value comes back as an ``int`` in both modes, and any other
    rational as a ``Fraction`` (lowest terms, positive denominator is what
    Fraction guarantees).  ``Fraction(2) == 2`` and the two hash the same, so
    mixing the types changes no comparison or lookup; ``int`` arithmetic is
    just the cheaper common case.  Natural scalars are nonnegative ints; a
    fractional or negative input is a semiring violation, not a rounding.
    """
    check_mode(mode)
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"scalar must be int or Fraction, got {type(value).__name__}")
    if value.denominator == 1:
        value = value.numerator
    if mode == NATURAL and (isinstance(value, Fraction) or value < 0):
        raise SemiringViolation(f"{value} is not a natural number")
    return value


def randbelow(getrandbits, n: int) -> int:
    """rng.randrange(n) for n >= 1, drawn from rng.getrandbits with the same bits consumed.

    This is CPython's Random._randbelow_with_getrandbits (3.10-3.13): draw
    n.bit_length() bits, and again while the value is >= n, so n = 1 still
    consumes one draw.  It skips randrange's argument checks, which cost more
    than the draw; rng.randint(a, b) is a + randbelow(rng.getrandbits, b - a + 1).
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_scalar(mode: str, rng: Random):
    """Uniform draw from [0, COEFF_BOUND] natural, [-COEFF_BOUND, COEFF_BOUND] rational."""
    lo = 0 if check_mode(mode) == NATURAL else -COEFF_BOUND
    return lo + randbelow(rng.getrandbits, COEFF_BOUND - lo + 1)

