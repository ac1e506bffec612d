"""Command-line interface: subcommands, exit codes, report files."""

import json
import subprocess
import sys
from time import perf_counter

import pytest

from tancat import cli, suites
from tancat.cli import main
from tancat.params import MAX_DEGREE, MAX_DIM, MAX_INSTANCES
from tancat.report import CheckSet

BUNDLE_TEXT = """[bundle]
base = 1
fibre = 1
sigma = x0; x1 + x2
zeta = x0; 0
lambda = 0; x1; x0; 0
"""

CORRUPT_TEXT = BUNDLE_TEXT.replace("lambda = 0; x1; x0; 0", "lambda = 0; x1; x0; x1")


@pytest.fixture
def bundle_file(tmp_path):
    path = tmp_path / "standard.ini"
    path.write_text(BUNDLE_TEXT)
    return str(path)


def test_diff_prints_canonical_derivative(capsys):
    assert main(["diff", "--expr", "x0^2*x1", "--dom", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2*x0*x1*u0 + x0^2*u1"


def test_diff_infers_domain_from_indices(capsys):
    assert main(["diff", "--expr", "x0 - 1"]) == 0
    assert capsys.readouterr().out.strip() == "u0"


def test_diff_natural_mode_rejects_subtraction(capsys):
    assert main(["diff", "--expr", "x0 - 1", "--mode", "natural"]) == 2
    assert "natural" in capsys.readouterr().err


def test_diff_long_sum_exits_zero(capsys):
    assert main(["diff", "--expr", "+".join(["x0"] * 3000)]) == 0
    assert capsys.readouterr().out.strip() == "3000*u0"


@pytest.mark.parametrize(
    "expr", ["(" * 3000 + "x0" + ")" * 3000, "-" * 3000 + "x0"], ids=["parens", "minus"]
)
def test_diff_deep_nesting_exits_two(expr, capsys):
    assert main(["diff", f"--expr={expr}"]) == 2
    assert "nest deeper" in capsys.readouterr().err


def test_diff_huge_exponent_exits_two(capsys):
    assert main(["diff", "--expr", "x0^99999999999"]) == 2
    assert "exponent exceeds" in capsys.readouterr().err


def test_diff_term_budget_exits_two_quickly(capsys):
    start = perf_counter()
    assert main(["diff", "--expr", "(x0+x1+1)^300", "--dom", "2"]) == 2
    assert perf_counter() - start < 1.0
    assert "more than 10000 terms" in capsys.readouterr().err


def test_diff_summed_term_budget_exits_two_quickly(capsys):
    start = perf_counter()
    assert main(["diff", "--expr", "(x0+x1+1)^139+(x0+x1+1)^139", "--dom", "2"]) == 2
    assert perf_counter() - start < 1.0
    assert "more than 10000 terms, summed over the text" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["x10000", "x30000"])
def test_diff_variable_past_the_bound_exits_two_quickly(expr, capsys):
    start = perf_counter()
    assert main(["diff", "--expr", expr]) == 2
    assert perf_counter() - start < 0.1
    assert f"variable {expr} exceeds the bound of 1000 variables (at position 0)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["diff", "--expr", "x0", "--dom", "1001"],
    ["diff", "--expr", "x0", "--dom", "-1"],
    ["bundle", "--file", "unread.ini", "--op", "pullback", "--map", "x0", "--map-dom", "10000"],
])
def test_dimension_past_the_bound_exits_two(argv, capsys):
    assert main(argv) == 2
    assert "is not a dimension from 0 to 1000" in capsys.readouterr().err


def test_diff_expression_starting_with_minus(capsys):
    assert main(["diff", "--expr", "-x0"]) == 0
    assert capsys.readouterr().out.strip() == "-u0"


def test_bundle_map_starting_with_minus(bundle_file, capsys):
    argv = ["bundle", "--file", bundle_file, "--op", "pullback", "--map", "-x0", "--map-dom", "1"]
    assert main(argv) == 0
    assert "pullback bundle: base 1, fibre 1" in capsys.readouterr().out


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("kernel\nbroke")

    monkeypatch.setattr("tancat.cli.run_suite", broken)
    assert main(["check", "--suite", "cdc-axioms"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: kernel broke\n"


def test_check_writes_schema_valid_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main([
        "check", "--suite", "cdc-axioms", "--mode", "natural",
        "--seed", "1", "--instances", "5", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data) == {"suite", "params", "checks", "passed", "failed", "duration_ms"}
    assert data["suite"] == "cdc-axioms" and data["failed"] == 0
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)
    assert "cdc-axioms" in capsys.readouterr().out


def test_check_of_high_degree_maps_exits_zero_or_one():
    # the largest degree allowed is decided exactly, as every smaller one is
    argv = ["check", "--suite", "numeric-consistency", "--max-degree", str(MAX_DEGREE), "--instances", "1"]
    assert main(argv + ["--max-dim", "1", "--seed", "10"]) in (0, 1)


def test_max_degree_above_its_bound_exits_two(capsys):
    # unbounded, numeric-consistency took 0.2-9.2 s at degree 1500 depending on the seed
    argv = ["check", "--suite", "numeric-consistency", "--max-dim", "1", "--instances", "1"]
    assert main(argv + ["--max-degree", str(MAX_DEGREE + 1)]) == 2
    err = capsys.readouterr().err
    assert f"invalid-params: max_degree must be at most {MAX_DEGREE}" in err and "Traceback" not in err
    assert main(argv + ["--max-degree", "1500"]) == 2


def test_check_exit_one_on_failures(capsys):
    code = main([
        "check", "--suite", "tangent-axioms", "--fault", "identity-flip",
        "--instances", "5", "--max-dim", "2",
    ])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_successive_calls_share_no_state(tmp_path, capsys):
    """main builds its parser once; options and errors of one call do not reach the next."""
    assert main(["check", "--instances", "3", "--mode", "natural"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tancat check") and "the following arguments are required: --suite" in err
    out = tmp_path / "r.json"
    assert main(["check", "--suite", "cdc-axioms", "--out", str(out)]) == 0
    out_text = capsys.readouterr().out
    assert out_text.startswith("suite cdc-axioms: 13 passed, 0 failed\n  [pass] cd1-additive\n")
    params = json.loads(out.read_text())["params"]
    assert (params["instances"], params["mode"], params["seed"]) == (50, "rational", 0)
    assert main(["diff", "--expr", "x0^2*x1", "--dom", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2*x0*x1*u0 + x0^2*u1\n" and captured.err == ""


def test_check_rejects_unknown_suite(capsys):
    assert main(["check", "--suite", "nope"]) == 2


def test_check_rejects_incompatible_fault(capsys):
    assert main(["check", "--suite", "bundle", "--fault", "identity-flip"]) == 2
    assert "invalid-params" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["check", "--suite", "cds"], ["fibre", "--context-dim", "1"]])
def test_max_dim_above_its_bound_exits_two(command, capsys):
    # unbounded, a dimension this large runs out of memory (exit 3)
    assert main(command + ["--max-dim", str(MAX_DIM + 1), "--instances", "1"]) == 2
    err = capsys.readouterr().err
    assert f"invalid-params: max_dim must be at most {MAX_DIM}" in err and "Traceback" not in err
    assert main(command + ["--max-dim", "100000", "--instances", "1"]) == 2


@pytest.mark.parametrize("command", [["check", "--suite", "tangent-axioms"], ["fibre", "--context-dim", "1"]])
def test_instances_are_bounded_before_any_suite_runs(command, monkeypatch, capsys):
    # unbounded, tangent-axioms at 1,000,000,000 instances ran until it was killed
    seen = []
    monkeypatch.setitem(suites._SUITES, "tangent-axioms", lambda p: seen.append(p.instances) or CheckSet())
    monkeypatch.setattr(cli, "verify_fibre_axioms", lambda context, p: seen.append(p.instances) or CheckSet())
    assert main(command + ["--instances", str(MAX_INSTANCES)]) == 0
    assert seen == [MAX_INSTANCES]
    assert main(command + ["--instances", str(MAX_INSTANCES + 1)]) == 2
    err = capsys.readouterr().err
    assert f"invalid-params: instances must be at most {MAX_INSTANCES}" in err and "Traceback" not in err
    assert main(command + ["--instances", "1000000000"]) == 2
    assert seen == [MAX_INSTANCES]


def test_bundle_verify(bundle_file, capsys):
    assert main(["bundle", "--file", bundle_file, "--op", "verify"]) == 0
    assert "passed" in capsys.readouterr().out


def test_bundle_verify_corrupt_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CORRUPT_TEXT)
    assert main(["bundle", "--file", str(path), "--op", "verify"]) == 1
    assert "lambda-zeta-square" in capsys.readouterr().out


def test_bundle_tangent_prints_doubled_data(bundle_file, capsys):
    assert main(["bundle", "--file", bundle_file, "--op", "tangent"]) == 0
    out = capsys.readouterr().out
    assert "base 2, fibre 2" in out


def test_bundle_pullback_and_whitney(bundle_file, capsys):
    assert main(["bundle", "--file", bundle_file, "--op", "pullback",
                 "--map", "x0^2", "--map-dom", "1"]) == 0
    assert "base 1, fibre 1" in capsys.readouterr().out
    assert main(["bundle", "--file", bundle_file, "--op", "whitney",
                 "--file2", bundle_file]) == 0
    assert "fibre 2" in capsys.readouterr().out


def test_bundle_bracket_solves_section(bundle_file, capsys):
    assert main(["bundle", "--file", bundle_file, "--op", "bracket",
                 "--map", "0; x0^2; x0; x0", "--map-dom", "1"]) == 0
    assert capsys.readouterr().out.strip() == "x0; x0^2"


def test_bundle_bracket_rejects_bad_input(bundle_file, capsys):
    code = main(["bundle", "--file", bundle_file, "--op", "bracket",
                 "--map", "x0; x0^2; x0; x0", "--map-dom", "1"])
    assert code == 2
    assert "precondition" in capsys.readouterr().err


def test_bundle_missing_file_and_malformed_text(tmp_path, capsys):
    assert main(["bundle", "--file", str(tmp_path / "none.ini"), "--op", "verify"]) == 2
    bad = tmp_path / "broken.ini"
    bad.write_text("[nope]\n")
    assert main(["bundle", "--file", str(bad), "--op", "verify"]) == 2


def test_bundle_missing_key_exits_two(tmp_path, capsys):
    path = tmp_path / "nofibre.ini"
    path.write_text(BUNDLE_TEXT.replace("fibre = 1\n", ""))
    assert main(["bundle", "--file", str(path), "--op", "verify"]) == 2
    assert "'fibre'" in capsys.readouterr().err


def test_bundle_negative_fibre_exits_two(tmp_path, capsys):
    path = tmp_path / "negative.ini"
    path.write_text(BUNDLE_TEXT.replace("fibre = 1", "fibre = -1"))
    assert main(["bundle", "--file", str(path), "--op", "verify"]) == 2
    assert "fibre must be a non-negative integer" in capsys.readouterr().err


def test_bundle_non_integer_base_exits_two(tmp_path, capsys):
    path = tmp_path / "letter.ini"
    path.write_text(BUNDLE_TEXT.replace("base = 1", "base = x"))
    assert main(["bundle", "--file", str(path), "--op", "verify"]) == 2
    assert "base must be a non-negative integer" in capsys.readouterr().err


def test_bundle_past_the_bound_exits_two_quickly(tmp_path, capsys):
    path = tmp_path / "wide.ini"
    path.write_text(BUNDLE_TEXT.replace("base = 1", "base = 10000"))
    start = perf_counter()
    assert main(["bundle", "--file", str(path), "--op", "verify"]) == 2
    assert perf_counter() - start < 0.1
    assert "base + 2 * fibre must be at most 1000, got 10002" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("base = 1\n", "no section headers"),
        (BUNDLE_TEXT + "base = 2\n", "option 'base' in section 'bundle' already exists"),
        (BUNDLE_TEXT + "[bundle]\nbase = 1\n", "section 'bundle' already exists"),
        (BUNDLE_TEXT + "a line without an equals sign\n", "[line  7]"),
        (BUNDLE_TEXT.replace("x1 + x2", "x1 % x2"), "sigma: unexpected character '%' (at position 7)"),
        (BUNDLE_TEXT.replace("; x0; 0", "; x0; x0 +"), "lambda: unexpected end of input (at position 15)"),
        (BUNDLE_TEXT.replace("base = 1", "base = " + "9" * 5000), "base alone is more than"),
    ],
    ids=["no-section", "duplicate-key", "duplicate-section", "not-key-value", "percent", "bad-lambda",
         "long-base"],
)
def test_bundle_malformed_ini_exits_two(text, message, tmp_path, capsys):
    path = tmp_path / "malformed.ini"
    path.write_text(text)
    start = perf_counter()
    assert main(["bundle", "--file", str(path), "--op", "verify"]) == 2
    assert perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize(
    "expr, message",
    [
        ("((99)^1000)^1000", "power could have coefficients of more than 10000 bits (at position 11)"),
        ("(((99)^1000)^1000)^1000", "(at position 12)"),
        ("x" + "9" * 5000, "exceeds the bound of 1000 variables (at position 0)"),
        ("x0^" + "9" * 5000, "exponent exceeds 1000 (at position 3)"),
        ("9" * 5000 + "*x0", "literal has more than 3010 digits (at position 0)"),
    ],
    ids=["power-of-power", "power-of-power-of-power", "long-index", "long-exponent", "long-literal"],
)
def test_diff_oversized_numbers_exit_two_quickly(expr, message, capsys):
    start = perf_counter()
    assert main(["diff", "--expr", expr]) == 2
    assert perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert message in err and "Exceeds the limit" not in err


def test_bundle_pullback_needs_map(bundle_file, capsys):
    assert main(["bundle", "--file", bundle_file, "--op", "pullback"]) == 2


def test_fibre_runs_tangent_axioms(capsys):
    assert main(["fibre", "--context-dim", "1", "--instances", "5"]) == 0
    assert "fibre-tangent-axioms" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--context-dim", "-1", "context_dim"),
        ("--context-dim", "1001", "context_dim"),
        ("--max-dim", "0", "max_dim"),
        ("--instances", "0", "instances"),
        ("--instances", "-1", "instances"),
    ],
)
def test_fibre_rejects_out_of_range_values(flag, value, field, capsys):
    argv = ["fibre", "--context-dim", "1", flag, value]
    assert main(argv) == 2
    assert f"invalid-params: {field} " in capsys.readouterr().err


def test_fibre_rejects_other_suites(capsys):
    assert main(["fibre", "--context-dim", "1", "--suite", "bundle"]) == 2


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tancat.cli", "diff", "--expr", "x0^2", "--dom", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2*x0*u0"
