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


def test_details_render_the_same_text_as_a_str_or_as_parts():
    """A tuple of parts renders as the f-string it replaces, with or without a detail."""
    for detail, parts in [("", ""), ("instance 3: f = [1, 2]", ("instance 3: f = ", [1, 2]))]:
        text, lazy = CheckSet(), CheckSet()
        text.equality("eq", (1, 2), (0, 0), detail)
        lazy.equality("eq", (1, 2), (0, 0), parts)
        text.condition("cond", False, detail)
        lazy.condition("cond", False, parts)
        assert text.checks == lazy.checks
    assert text.checks[1].counterexample == "instance 3: f = [1, 2]; lhs = (1, 2); rhs = (0, 0)"


class Loud:
    """A value that counts how often it is rendered."""

    renders = 0

    def __str__(self):
        Loud.renders += 1
        return "loud"


def test_a_detail_renders_only_when_its_row_first_fails():
    Loud.renders = 0
    cs = CheckSet()
    cs.condition("law", True, ("x = ", Loud()))
    cs.equality("law", 1, 1, ("x = ", Loud()))
    assert Loud.renders == 0
    cs.equality("law", 1, 2, ("x = ", Loud()))
    cs.equality("law", 1, 3, ("x = ", Loud()))
    cs.condition("law", False, ("x = ", Loud()))
    assert Loud.renders == 1
    assert cs.checks[0].counterexample == "x = loud; lhs = 1; rhs = 2"
