"""The exit-code contract under drawn input: 0, 1 or 2, quickly, and never a traceback.

Expressions are drawn from grammar tokens (long indices, exponents and
literals, deep nesting) and from arbitrary text.  Bundle files start from a
valid one whose keys are each kept, dropped or given a drawn value, then
add drawn keys, values, section headers and stray lines.  The examples are
derandomized, so every run draws the same ones.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tancat.cli import main

FUZZ = settings(
    derandomize=True,
    max_examples=60,
    deadline=timedelta(seconds=1),
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

NINES = st.integers(1, 5000).map(lambda n: "9" * n)

TOKENS = st.one_of(
    st.sampled_from(["+", "-", "*", "^", "/", "(", ")", ";", " ", "x0", "x1", "1/2"]),
    st.integers(0, 2000).map(str),
    st.integers(0, 1200).map(lambda i: f"x{i}"),
    st.integers(0, 1200).map(lambda e: f"^{e}"),
    NINES,
    NINES.map(lambda digits: "x" + digits),
    NINES.map(lambda digits: "^" + digits),
    st.integers(1, 150).map(lambda depth: "(" * depth),
)

EXPRESSIONS = st.one_of(st.lists(TOKENS, max_size=16).map("".join), st.text(max_size=40))

KEYS = st.one_of(
    st.sampled_from(["base", "fibre", "sigma", "zeta", "lambda", "mode", "triv", "triv_inv"]),
    st.text(max_size=8),
)

VALUES = st.one_of(
    st.sampled_from(["0", "2", "-1", "x0", "0; x1; x0; 0", "natural", "1000", "998"]),
    st.sampled_from(["%", "x0 % x1", "x0; x1 %% x2", "%(base)s", "%(x)s"]),
    NINES,
    EXPRESSIONS,
)

BUNDLE = {"base": "1", "fibre": "1", "sigma": "x0; x1 + x2", "zeta": "x0; 0", "lambda": "0; x1; x0; 0"}



def _kept_drawn_or_dropped(value):
    """The value kept, a drawn value or None (the key dropped), in the ratio 2 : 2 : 1."""
    return st.one_of(st.just(value), st.just(value), VALUES, VALUES, st.none())


FIELDS = st.fixed_dictionaries({key: _kept_drawn_or_dropped(value) for key, value in BUNDLE.items()})

LINES = st.one_of(
    st.tuples(KEYS, VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["[bundle]", "[other]", "a line without an equals sign", "  indented", "["]),
    st.text(max_size=20),
)


def _exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _holds_contract(code, err):
    assert code in (0, 1, 2), err
    assert "Traceback" not in err and "internal error" not in err, err


@FUZZ
@given(expr=EXPRESSIONS)
def test_diff_exit_codes(expr):
    _holds_contract(*_exit_code(["diff", "--expr", expr]))


@FUZZ
@given(shape=st.integers(0, 3), fields=FIELDS, extra=st.lists(LINES, max_size=3))
def test_bundle_verify_exit_codes(shape, fields, extra, tmp_path):
    lines = [] if shape == 3 else ["[bundle]"]  # one file in four has no section header
    lines += [f"{key} = {value}" for key, value in fields.items() if value is not None] + extra
    path = tmp_path / "drawn.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _holds_contract(*_exit_code(["bundle", "--file", str(path), "--op", "verify"]))
