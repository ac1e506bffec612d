"""Dual-number evaluation and the finite-difference harness."""

from fractions import Fraction
from random import Random

import pytest

from tancat import scalars
from tancat.cdc import cdc_D
from tancat.errors import NonFiniteError
from tancat.numeric import Dual, NumericProgram, dual_eval, eval_program, fd_check
from tancat.parser import parse_polymap
from tancat.poly import eval_polymap, random_polymap


def test_square_at_three():
    prog = NumericProgram.from_polymap(parse_polymap("x0^2", 1, scalars.RATIONAL))
    values, tangents = dual_eval(prog, [3.0], [1.0])
    assert values == (9.0,)
    assert tangents == (6.0,)
    assert eval_program(prog, [3.0]) == (9.0,)


def test_zero_direction_gives_zero_tangent():
    rng = Random(13)
    for _ in range(10):
        f = random_polymap(rng.randint(1, 3), 2, 3, 5, rng, scalars.RATIONAL)
        prog = NumericProgram.from_polymap(f)
        point = [rng.uniform(-2, 2) for _ in range(f.dom)]
        _, tangents = dual_eval(prog, point, [0.0] * f.dom)
        assert tangents == (0.0, 0.0)


def test_constant_program_has_zero_tangent():
    prog = NumericProgram.from_polymap(parse_polymap("7", 2, scalars.RATIONAL))
    _, tangents = dual_eval(prog, [1.5, -2.5], [1.0, 1.0])
    assert tangents == (0.0,)


def test_dual_arithmetic_product_rule():
    a = Dual(3.0, 1.0)
    b = Dual(5.0, 2.0)
    assert (a * b).primal == 15.0
    assert (a * b).tangent == 3.0 * 2.0 + 5.0 * 1.0
    assert (a + b).tangent == 3.0


def test_fd_matches_dual_on_cubics():
    rng = Random(4)
    for _ in range(20):
        f = random_polymap(rng.randint(1, 3), rng.randint(1, 2), 3, 5, rng, scalars.RATIONAL)
        prog = NumericProgram.from_polymap(f)
        point = [rng.uniform(-1.5, 1.5) for _ in range(f.dom)]
        direction = [rng.uniform(-1.5, 1.5) for _ in range(f.dom)]
        assert fd_check(prog, point, direction) <= 1e-5


def test_fd_is_tight_on_affine_maps():
    # central differences are exact for affine maps up to rounding
    prog = NumericProgram.from_polymap(parse_polymap("3*x0 - 2*x1 + 1; x1", 2, scalars.RATIONAL))
    rng = Random(6)
    for _ in range(10):
        point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        direction = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        assert fd_check(prog, point, direction) <= 1e-8


def test_fd_constant_is_zero():
    prog = NumericProgram.from_polymap(parse_polymap("4", 1, scalars.RATIONAL))
    assert fd_check(prog, [0.3], [1.0]) == 0.0


def test_overflow_raises_non_finite():
    prog = NumericProgram.from_polymap(parse_polymap("x0^3", 1, scalars.RATIONAL))
    with pytest.raises(NonFiniteError):
        dual_eval(prog, [1e200], [1.0])


def test_fractional_coefficients_evaluate():
    prog = NumericProgram.from_polymap(parse_polymap("1/2*x0", 1, scalars.RATIONAL))
    values, tangents = dual_eval(prog, [4.0], [2.0])
    assert values == (2.0,) and tangents == (1.0,)


def test_dense_program_evaluates_without_recursion():
    # 1,771 terms: the sum is one long left-nested chain of additions
    f = parse_polymap("(x0+x1+x2+1)^20", 3, scalars.RATIONAL)
    assert len(f.components[0].terms) == 1771
    point, direction = [0.25, 0.5, 0.125], [1.0, -0.5, 2.0]
    _, tangents = dual_eval(NumericProgram.from_polymap(f), point, direction)
    exact = eval_polymap(cdc_D(f), [Fraction(v) for v in direction + point])
    assert tangents[0] == pytest.approx(float(exact[0]), rel=1e-9)
