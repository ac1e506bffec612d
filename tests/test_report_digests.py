"""tools/report_digests.py digests reports the way the golden test pins them.

The tool prints one line per report, so that byte-identity of every report
across a change is one ``diff`` of its output; this checks that it covers
every suite and benchmarked fault in both modes, and that its seed-0 ``cds``
lines carry the digests ``tests/test_golden.py`` pins.
"""

import importlib.util
from pathlib import Path

from tancat.suites import FAULT_SUITES, SUITE_NAMES

ROOT = Path(__file__).resolve().parent.parent


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
