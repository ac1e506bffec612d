"""Byte-identity of the reports: every suite and every benchmarked fault.

Each digest is the sha256 of a report's JSON (keys sorted, ``duration_ms``
removed) at default bounds.  The seed-0 digests were computed with the kernel
that re-sorted its accumulator after every term and factor, before
substitution, composition and ``D`` were changed to sort once per result, so a
kernel change that alters any row, status or printed counterexample fails
here.  Seeds 7 and 11 hold other random instances than seed 0's
byte-identical too.  Every digest is read from ``tools/report_digests.expected``,
the one committed copy, which CI also diffs ``tools/report_digests.py``
against; a deliberate change to a report updates its line there and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tancat.suites import run_suite

EXPECTED = Path(__file__).resolve().parent.parent / "tools" / "report_digests.expected"


def expected_runs():
    """((suite, mode, seed, fault), sha256) of each ``suite mode seed fault sha256`` line; fault is "-"
    for a clean run.  The file's last lines, ``tancat ...``, digest the CLI's own reports."""
    for text in EXPECTED.read_text(encoding="utf-8").splitlines():
        if not text.startswith("tancat "):
            suite, mode, seed, fault, sha = text.split()
            yield (suite, mode, int(seed), fault), sha


RUNS = dict(expected_runs())
SEED_ZERO = {run: sha for run, sha in RUNS.items() if run[2] == 0}
SUITE_DIGESTS = {(suite, mode): sha for (suite, mode, _, fault), sha in SEED_ZERO.items() if fault == "-"}
# the (suite, fault) pairs of the benchmark's faults workload
FAULT_DIGESTS = {
    (suite, fault, mode): sha for (suite, mode, _, fault), sha in SEED_ZERO.items() if fault != "-"
}
OTHER_SEED_RUNS = {run: sha for run, sha in RUNS.items() if run[2] != 0}


def digest(report):
    data = report.to_dict()
    data.pop("duration_ms")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("suite, mode", sorted(SUITE_DIGESTS))
def test_suite_report_is_unchanged(suite, mode):
    assert digest(run_suite(suite, mode=mode, seed=0)) == SUITE_DIGESTS[suite, mode]


@pytest.mark.parametrize("suite, fault, mode", sorted(FAULT_DIGESTS))
def test_fault_report_is_unchanged(suite, fault, mode):
    assert digest(run_suite(suite, mode=mode, seed=0, fault=fault)) == FAULT_DIGESTS[suite, fault, mode]


@pytest.mark.parametrize("suite, mode, seed, fault", sorted(OTHER_SEED_RUNS))
def test_report_at_another_seed_is_unchanged(suite, mode, seed, fault):
    report = run_suite(suite, mode=mode, seed=seed, fault=None if fault == "-" else fault)
    assert digest(report) == OTHER_SEED_RUNS[suite, mode, seed, fault]
