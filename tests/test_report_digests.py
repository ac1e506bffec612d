"""tools/report_digests.py digests reports the way the golden test pins them.

The tool prints one line per report, so that byte-identity of every report
across a change is one ``diff`` of its output; this checks that it covers
every suite and benchmarked fault in both modes, that its seed-0 ``cds``
lines carry the digests ``tests/test_golden.py`` pins, and that the reports
the CLI builds itself (``tancat fibre`` and ``tancat bundle``) keep the
digests of the last lines of ``tools/report_digests.expected``, which they
have had since those reports were first built in the CLI.
"""

import importlib.util
from pathlib import Path

from tancat.suites import FAULT_SUITES, SUITE_NAMES

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tools" / "report_digests.expected"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_zero_cds_digests_match_the_golden_ones():
    tool = _load(ROOT / "tools" / "report_digests.py", "report_digests")
    golden = _load(ROOT / "tests" / "test_golden.py", "golden_digests")
    runs = list(tool.runs([0]))
    pairs = sum(len(suites) for suites in FAULT_SUITES.values())
    assert len(set(runs)) == len(runs) == 2 * (len(SUITE_NAMES) + pairs)
    for mode in ("rational", "natural"):
        assert tool.line("cds", mode, 0, None) == f"cds {mode} 0 - {golden.SUITE_DIGESTS['cds', mode]}"


def test_cli_report_digests_are_pinned():
    tool = _load(ROOT / "tools" / "report_digests.py", "report_digests")
    lines = [tool.cli_line(args) for args in tool.cli_runs()]
    assert lines == EXPECTED.read_text(encoding="utf-8").splitlines()[-len(lines) :]


def test_expected_digests_cover_every_run_of_the_ci_seeds():
    """tools/report_digests.expected, which CI diffs the tool against, has one line per run, in order."""
    tool = _load(ROOT / "tools" / "report_digests.py", "report_digests")
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    keys = [f"{suite} {mode} {seed} {fault or '-'}" for suite, mode, seed, fault in tool.runs([0, 7, 11])]
    keys += [f"tancat {' '.join(args)}" for args in tool.cli_runs()]
    assert [line.rsplit(" ", 1)[0] for line in lines] == keys
