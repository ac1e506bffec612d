"""The benchmark's workloads: seeded inputs, one operation per verdict, and the
known answer each verdict is checked against.

An operation is timed from the call to the verdict.  Checking it against the
known answer happens after the clock stops, in ``Operation.check``, which
returns an error message (or None) and a digest of the deterministic output;
the digests of one seed must agree between passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

MODES = ("rational", "natural")

# ---------------------------------------------------------------------------
# suites and faults: `tancat check` through cli.main, in-process

SUITES = (
    "bracket-laws",
    "bundle",
    "cdc-axioms",
    "cds",
    "derived-differential",
    "diffobj",
    "fibration",
    "interchange",
    "linearity",
    "monad-laws",
    "numeric-consistency",
    "tangent-axioms",
)

_STANDARD_1_1 = (
    "lambda-additive-over-zeta",
    "lambda-lift-coherence",
    "lambda-zeta-square",
    "mu-projection",
    "universality-cone",
    "universality-left",
    "universality-right",
)

# (suite, fault) -> the exact set of rows that must fail, in both modes and at
# every seed.  It contains the rows tests/test_suites.py asserts.
# run_suite("monad-laws", fault=...) accepts identity-flip and
# dropped-zero-block but fails no row, so those pairs are not in this table.
FAULT_ROWS = {
    ("tangent-axioms", "identity-flip"): frozenset({
        "ell-flip-braid",
        "flip-additive",
        "flip-vs-tangent-projection",
        "flip-zero",
    }),
    ("tangent-axioms", "dropped-zero-block"): frozenset({
        "ell-coassociative",
        "ell-flip",
        "lift-v-point",
        "lift-witness-cone",
        "lift-witness-inverse",
        "lift-witness-tangent",
    }),
    ("bundle", "corrupted-lambda"): frozenset(
        {f"standard-1-1:{row}" for row in _STANDARD_1_1}
        | {f"T[standard-1-1]:{row}" for row in _STANDARD_1_1}
        | {"pullback-verify", "whitney-verify"}
    ),
    ("bracket-laws", "corrupted-lambda"): frozenset({
        "bracket-defining",
        "bracket-of-lambda",
        "bracket-of-mu",
    }),
}


@dataclass
class Operation:
    """One closed-loop operation: ``run`` gives the verdict, ``check`` judges it."""

    name: str  # the per-layer metric prefix, e.g. suites.cds.natural
    run: Callable[[], object]
    check: Callable[[object], Tuple[Optional[str], str]]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _check_name(suite: str, mode: str, fault: Optional[str]) -> str:
    return f"suites.{suite}.{mode}" if fault is None else f"faults.{suite}.{fault}.{mode}"


def _check_op(suite: str, mode: str, seed: int, fault: Optional[str], out: str) -> Operation:
    from tancat import cli

    argv = ["check", "--suite", suite, "--mode", mode, "--seed", str(seed), "--out", out]
    if fault is not None:
        argv += ["--fault", fault]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(out)
        report.pop("duration_ms")
        digest = _digest(json.dumps(report, sort_keys=True))
        return _judge(report, code, fault and FAULT_ROWS[suite, fault]), digest

    return Operation(_check_name(suite, mode, fault), run, check)


def _judge(report: dict, code: int, must_fail: Optional[frozenset]) -> Optional[str]:
    """Compare a check report with the expected verdict; None when it matches."""
    rows = report["checks"]
    failing = {r["name"] for r in rows if r["status"] != "pass"}
    if not rows:
        return "report has no rows"
    if report["failed"] != len(failing) or report["passed"] != len(rows) - len(failing):
        return "report counts disagree with its rows"
    if must_fail is None:
        if code != 0 or failing:
            return f"expected exit 0 and no failing row, got {code} and {sorted(failing)}"
        return None
    if code != 1:
        return f"expected exit 1, got {code}"
    if failing != must_fail:
        return f"failing rows {sorted(failing ^ must_fail)} differ from the expected set"
    if not all(r["counterexample"] for r in rows if r["status"] != "pass"):
        return "a failing row has no counterexample"
    return None


def suites_ops(seed: int, out_dir: str) -> List[Operation]:
    return [
        _check_op(suite, mode, seed, None, os.path.join(out_dir, f"{suite}.{mode}.json"))
        for suite in SUITES
        for mode in MODES
    ]


def faults_ops(seed: int, out_dir: str) -> List[Operation]:
    return [
        _check_op(suite, mode, seed, fault,
                  os.path.join(out_dir, f"{suite}.{fault}.{mode}.json"))
        for suite, fault in FAULT_ROWS
        for mode in MODES
    ]


# ---------------------------------------------------------------------------
# dense-kernel: parse -> D -> T -> print, and the chain rule, on dense maps

# (variables, exponents of the affine factors, mode).  One factor is a power;
# two are a product.  Every rung is dense: all monomials up to the total
# degree appear, so the term count is C(n + degree, n).
RUNGS = (
    (2, (20,), "rational"),     # 231 terms
    (3, (5, 5), "natural"),     # 286
    (4, (8,), "rational"),      # 495
    (3, (8, 7), "natural"),     # 816
    (2, (40,), "rational"),     # 861
    (4, (5, 5), "natural"),     # 1001
    (3, (20,), "rational"),     # 1771
    (4, (6, 6), "natural"),     # 1820
)


def _affine(rng: random.Random, n: int, mode: str) -> List[Fraction]:
    """Coefficients (c0, c1..cn) of c0 + sum c_i x_i, all nonzero."""
    if mode == "natural":
        return [Fraction(rng.randint(1, 4)) for _ in range(n + 1)]
    return [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((1, 1, 2)))
        for _ in range(n + 1)
    ]


def _scalar_text(c: Fraction) -> str:
    mag = abs(c)
    text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
    return ("-" if c < 0 else "+") + text


def _affine_text(coeffs: List[Fraction]) -> str:
    text = "".join(f"{_scalar_text(c)}*x{i}" for i, c in enumerate(coeffs[1:]))
    text += _scalar_text(coeffs[0])
    return "(" + text.lstrip("+") + ")"


def _eval_affine(coeffs: List[Fraction], x) -> Fraction:
    return coeffs[0] + sum(c * v for c, v in zip(coeffs[1:], x))


def _point(rng: random.Random, n: int, mode: str) -> List[Fraction]:
    if mode == "natural":
        return [Fraction(rng.randint(0, 3)) for _ in range(n)]
    return [Fraction(rng.randint(-3, 3), 3) for _ in range(n)]


def _eval_terms(terms, point) -> Fraction:
    """A polynomial's value from its (exponent, coefficient) tuples."""
    total = Fraction(0)
    for ev, c in terms:
        term = Fraction(c)
        for v, e in zip(point, ev):
            if e:
                term *= v ** e
        total += term
    return total


def _dense_name(n: int, exps: Tuple[int, ...], mode: str) -> str:
    return f"dense.n{n}-d{sum(exps)}-{'power' if len(exps) == 1 else 'product'}.{mode}"


def _dense_op(n: int, exps: Tuple[int, ...], mode: str, rng: random.Random) -> Operation:
    # module attributes, looked up per call, so that an installed tracer sees them
    from tancat import cdc, parser, poly

    factors = [_affine(rng, n, mode) for _ in exps]
    f_text = "*".join(f"{_affine_text(c)}^{e}" for c, e in zip(factors, exps))
    # g : 1 -> 2, dense affine, so f;g is no larger than f
    g = parser.parse_polymap(";".join(_affine_text(_affine(rng, 1, mode)) for _ in range(2)), 1, mode)
    point_x = _point(rng, n, mode)
    point_u = _point(rng, n, mode)

    def run():
        f = parser.parse_polymap(f_text, n, mode)
        d = cdc.cdc_D(f)
        t = cdc.cdc_T(f)
        printed = poly.polymap_to_str(t)
        chain = cdc.cdc_D(poly.polymap_compose(f, g)) == poly.polymap_compose(t, cdc.cdc_D(g))
        return f, d, t, printed, chain

    def check(result):
        f, d, t, printed, chain = result
        x, u = point_x, point_u
        values = [_eval_affine(c, x) for c in factors]
        f_x = Fraction(1)
        for v, e in zip(values, exps):
            f_x *= v ** e
        # closed form: D(prod L_k^e_k)(u, x) = sum_k e_k L_k^(e_k-1) L_k'(u) prod_{l!=k} L_l^e_l
        df = Fraction(0)
        for k, (c, e) in enumerate(zip(factors, exps)):
            part = e * values[k] ** (e - 1) * sum(ck * uk for ck, uk in zip(c[1:], u))
            for j, (v, ej) in enumerate(zip(values, exps)):
                if j != k:
                    part *= v ** ej
            df += part
        ux = u + x
        if len(f.components) != 1 or _eval_terms(f.components[0].terms, x) != f_x:
            error = "parsed map disagrees with its closed form"
        elif _eval_terms(d.components[0].terms, ux) != df:
            error = "D f disagrees with the closed-form derivative"
        elif t.components[:1] != d.components:
            error = "T f does not start with D f"
        elif _eval_terms(t.components[1].terms, ux) != f_x:
            error = "T f point block disagrees with f"
        elif not chain:
            error = "chain rule D(f;g) = T(f);D(g) fails"
        else:
            error = None
        return error, _digest(printed)

    return Operation(_dense_name(n, exps, mode), run, check)


def dense_ops(seed: int, out_dir: str) -> List[Operation]:
    rng = random.Random(f"dense-kernel:{seed}")
    return [_dense_op(n, exps, mode, rng) for n, exps, mode in RUNGS]


WORKLOADS = {
    "suites": suites_ops,
    "dense-kernel": dense_ops,
    "faults": faults_ops,
}


def operation_names() -> List[str]:
    """Every operation name of every workload, without importing tancat."""
    names = [_check_name(s, m, None) for s in SUITES for m in MODES]
    names += [_check_name(s, m, f) for s, f in FAULT_ROWS for m in MODES]
    names += [_dense_name(n, e, m) for n, e, m in RUNGS]
    return names
