"""Dual-number evaluation and the finite-difference harness."""

from dataclasses import dataclass
from fractions import Fraction
from random import Random

import pytest

from tancat import scalars
from tancat.cdc import cdc_D
from tancat.errors import NonFiniteError
from tancat.numeric import NumericProgram, dual_eval, eval_program, fd_check
from tancat.parser import parse_polymap
from tancat.poly import PolyMap, eval_polymap, poly_scale, random_polymap


# ---------------------------------------------------------------- reference

@dataclass(frozen=True)
class Dual:
    """A first-order jet a + eps*b with eps^2 = 0."""

    primal: float
    tangent: float

    def __add__(self, other: "Dual") -> "Dual":
        return Dual(self.primal + other.primal, self.tangent + other.tangent)

    def __mul__(self, other: "Dual") -> "Dual":
        return Dual(
            self.primal * other.primal,
            self.primal * other.tangent + other.primal * self.tangent,
        )

    def __pow__(self, e: int) -> "Dual":
        if e < 0:
            raise ValueError("negative exponents are not supported")
        if e == 0:
            return Dual(1.0, 0.0)
        return Dual(
            self.primal**e,
            float(e) * self.primal ** (e - 1) * self.tangent,
        )


def ref_eval_terms(terms, env):
    acc = None
    for ev, c in terms:
        term = None
        for x, e in zip(env, ev):
            if e:
                factor = x if e == 1 else x**e
                term = factor if term is None else term * factor
        if term is None or c != 1:
            term = Dual(c, 0.0) if term is None else Dual(c, 0.0) * term
        acc = term if acc is None else acc + term
    return acc if acc is not None else Dual(0.0, 0.0)


def ref_dual_eval(prog, point, direction):
    env = [Dual(float(x), float(v)) for x, v in zip(point, direction)]
    outs = [ref_eval_terms(terms, env) for terms in prog.outputs]
    return tuple(out.primal for out in outs), tuple(out.tangent for out in outs)


def ref_fd_check(prog, point, direction):
    h = 1e-6
    _, tangents = ref_dual_eval(prog, point, direction)
    ahead, _ = ref_dual_eval(prog, [x + h * v for x, v in zip(point, direction)], [0.0] * prog.dom)
    behind, _ = ref_dual_eval(prog, [x - h * v for x, v in zip(point, direction)], [0.0] * prog.dom)
    worst = 0.0
    for t, a, b in zip(tangents, ahead, behind):
        fd = (a - b) / (2.0 * h)
        worst = max(worst, abs(fd - t) / max(1.0, abs(t)))
    return worst


def hexes(values_and_tangents):
    return [[x.hex() for x in part] for part in values_and_tangents]


@pytest.mark.parametrize("mode", scalars.MODES)
def test_dual_eval_and_fd_check_match_the_dual_class_bit_for_bit(mode):
    rng = Random(17)

    def coordinate():
        return rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))

    for _ in range(150):
        f = random_polymap(rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 6), rng, mode)
        if mode == scalars.RATIONAL:
            scale = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            f = PolyMap(f.dom, f.cod, tuple(poly_scale(c, scale) for c in f.components), mode)
        prog = NumericProgram.from_polymap(f)
        for _ in range(4):
            point = [coordinate() for _ in range(f.dom)]
            direction = [0.0] * f.dom if rng.random() < 0.25 else [coordinate() for _ in range(f.dom)]
            assert hexes(dual_eval(prog, point, direction)) == hexes(ref_dual_eval(prog, point, direction))
            assert fd_check(prog, point, direction).hex() == ref_fd_check(prog, point, direction).hex()


# ------------------------------------------------------------------ cases


def test_square_at_three():
    prog = NumericProgram.from_polymap(parse_polymap("x0^2", 1, scalars.RATIONAL))
    values, tangents = dual_eval(prog, [3.0], [1.0])
    assert values == (9.0,)
    assert tangents == (6.0,)
    assert eval_program(prog, [3.0]) == (9.0,)


def test_zero_direction_gives_zero_tangent():
    rng = Random(13)
    for _ in range(10):
        f = random_polymap(rng.randint(1, 3), 2, 3, rng, scalars.RATIONAL)
        prog = NumericProgram.from_polymap(f)
        point = [rng.uniform(-2, 2) for _ in range(f.dom)]
        _, tangents = dual_eval(prog, point, [0.0] * f.dom)
        assert tangents == (0.0, 0.0)


def test_constant_program_has_zero_tangent():
    prog = NumericProgram.from_polymap(parse_polymap("7", 2, scalars.RATIONAL))
    _, tangents = dual_eval(prog, [1.5, -2.5], [1.0, 1.0])
    assert tangents == (0.0,)


def test_dual_arithmetic_product_rule():
    # x0 = 3 + eps, x1 = 5 + 2 eps
    product = NumericProgram.from_polymap(parse_polymap("x0*x1", 2, scalars.RATIONAL))
    values, tangents = dual_eval(product, [3.0, 5.0], [1.0, 2.0])
    assert values == (15.0,)
    assert tangents == (3.0 * 2.0 + 5.0 * 1.0,)
    total = NumericProgram.from_polymap(parse_polymap("x0 + x1", 2, scalars.RATIONAL))
    assert dual_eval(total, [3.0, 5.0], [1.0, 2.0])[1] == (3.0,)


def test_fd_matches_dual_on_cubics():
    rng = Random(4)
    for _ in range(20):
        f = random_polymap(rng.randint(1, 3), rng.randint(1, 2), 3, rng, scalars.RATIONAL)
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
