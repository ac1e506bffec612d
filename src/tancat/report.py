"""Check recording and report assembly shared by all suites.

A CheckSet aggregates many observations under named checks: the same name
may be touched repeatedly (once per random instance) and the row stays a
pass until the first failure, whose counterexample is kept.  A detail is
rendered only then, so a passing check formats no map.  Every checker
returns a CheckSet; a Report is built from one only where it is returned or
printed (suites.run_suite and the CLI).  Reports are deterministic for fixed
inputs except for the wall-time field.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    DimensionMismatch,
    NotABundleMorphism,
    PreconditionFailure,
    SemiringViolation,
)

PASS = "pass"
FAIL = "fail"
ERROR = "error"

# a row's detail: text, or parts joined with str if the row fails (see CheckSet)
Detail = Union[str, Tuple[object, ...]]


@dataclass
class CheckResult:
    name: str
    status: str
    counterexample: Optional[str] = None


@dataclass
class Report:
    suite: str
    params: Dict[str, object]
    checks: List[CheckResult]
    passed: int
    failed: int
    duration_ms: float

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {self.passed} passed, {self.failed} failed"]
        for c in self.checks:
            if c.status == PASS:
                lines.append(f"  [pass] {c.name}")
            else:
                lines.append(f"  [{c.status.upper()}] {c.name}: {c.counterexample}")
        return "\n".join(lines)


class CheckSet:
    """Accumulates per-check outcomes; first failure per name is kept.

    A detail is a str or a tuple of parts, joined with ``str`` only when its
    row records its first failure: most rows pass, and rendering the maps in
    their details would be the larger part of a passing check's time.
    """

    def __init__(self):
        self._rows: Dict[str, CheckResult] = {}
        self._start = time.perf_counter()

    def _touch(self, name: str) -> CheckResult:
        row = self._rows.get(name)
        if row is None:
            row = CheckResult(name, PASS)
            self._rows[name] = row
        return row

    def _fail(self, name: str, status: str, detail: Detail, *more):
        """Record a failure; the first one of a row renders detail, then the parts in more."""
        row = self._touch(name)
        if row.status == PASS:
            row.status = status
            text = detail if isinstance(detail, str) else "".join(map(str, detail))
            row.counterexample = text + "".join(map(str, more))

    def condition(self, name: str, ok: bool, detail: Detail = "") -> bool:
        if ok:
            self._touch(name)
        else:
            self._fail(name, FAIL, detail or "condition violated")
        return ok

    def equality(self, name: str, lhs, rhs, detail: Detail = "") -> bool:
        if lhs == rhs:
            self._touch(name)
            return True
        self._fail(name, FAIL, detail, "; " if detail else "", "lhs = ", lhs, "; rhs = ", rhs)
        return False

    def error(self, name: str, message: str):
        self._fail(name, ERROR, message)

    @property
    def checks(self) -> List[CheckResult]:
        """The rows so far, sorted by name, as a Report lists them."""
        return [self._rows[name] for name in sorted(self._rows)]

    @property
    def all_passed(self) -> bool:
        return all(row.status == PASS for row in self._rows.values())

    def absorb(self, source: "CheckSet", prefix: str = ""):
        """Fold the rows of another CheckSet into this set under a prefix."""
        for c in source.checks:
            name = f"{prefix}{c.name}"
            if c.status == PASS:
                self._touch(name)
            else:
                self._fail(name, c.status, c.counterexample or "")

    @contextmanager
    def guard(self, *names: str):
        """Record expected verification exceptions as an error in each named row."""
        try:
            yield
        except (
            PreconditionFailure,
            DimensionMismatch,
            SemiringViolation,
            NotABundleMorphism,
        ) as exc:
            for name in names:
                self.error(name, f"{type(exc).__name__}: {exc}")

    def report(self, suite: str, params: Dict[str, object]) -> Report:
        checks = self.checks
        passed = sum(1 for c in checks if c.status == PASS)
        duration = (time.perf_counter() - self._start) * 1000.0
        return Report(
            suite=suite,
            params=dict(params),
            checks=checks,
            passed=passed,
            failed=len(checks) - passed,
            duration_ms=round(duration, 3),
        )
