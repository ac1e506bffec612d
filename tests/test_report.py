"""Check aggregation: row lifecycle, guards, rendering, serialization."""

import json

from tancat.errors import PreconditionFailure
from tancat.report import CheckSet


def test_rows_aggregate_by_name_first_failure_wins():
    cs = CheckSet()
    cs.condition("law", True, "a")
    cs.condition("law", False, "first bad")
    cs.condition("law", False, "second bad")
    rep = cs.report("demo", {})
    assert rep.passed == 0 and rep.failed == 1
    (row,) = rep.checks
    assert row.status == "fail"
    assert row.counterexample == "first bad"


def test_equality_rows_render_counterexamples():
    cs = CheckSet()
    cs.equality("eq", 1, 2, "ints")
    row = cs.report("demo", {}).checks[0]
    assert "lhs = 1" in row.counterexample and "rhs = 2" in row.counterexample


def test_guard_turns_declared_exceptions_into_error_rows():
    cs = CheckSet()
    with cs.guard("guarded"):
        raise PreconditionFailure("boom")
    row = cs.report("demo", {}).checks[0]
    assert row.status == "error"
    assert "boom" in row.counterexample


def test_rows_sort_by_name_and_schema_is_stable():
    cs = CheckSet()
    cs.condition("zeta", True, "")
    cs.condition("alpha", True, "")
    rep = cs.report("demo", {"seed": 0})
    assert [c.name for c in rep.checks] == ["alpha", "zeta"]
    data = json.loads(rep.to_json())
    assert set(data) == {"suite", "params", "checks", "passed", "failed", "duration_ms"}
    assert data["suite"] == "demo" and data["passed"] == 2


def test_absorb_prefixes_rows():
    inner = CheckSet()
    inner.condition("law", False, "bad")
    outer = CheckSet()
    outer.absorb(inner.report("inner", {}), prefix="sub:")
    rep = outer.report("outer", {})
    assert rep.checks[0].name == "sub:law"
    assert rep.checks[0].status == "fail"


def test_to_text_one_line_per_row():
    cs = CheckSet()
    cs.condition("good", True, "")
    cs.condition("bad", False, "details")
    text = cs.report("demo", {}).to_text()
    assert "suite demo: 1 passed, 1 failed" in text.splitlines()[0]
    assert "  [pass] good" in text
    assert "  [FAIL] bad: details" in text
