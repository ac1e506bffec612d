"""Print a digest of every suite report and every benchmarked fault report.

Each line is ``suite mode seed fault sha256``, where the digest is taken
over the report's JSON with keys sorted and ``duration_ms`` removed (the
form ``tests/test_golden.py`` pins), and ``fault`` is ``-`` for a clean run.
Every suite runs in both scalar modes, and so does each (suite, fault) pair
of ``FAULT_SUITES``, at default bounds and each given seed.

    python3 tools/report_digests.py --seeds 0 7 11 > digests.txt

A change that must leave every report byte-identical shows it by one
``diff`` of this output before and after.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODES = ("rational", "natural")


def digest(report) -> str:
    data = report.to_dict()
    data.pop("duration_ms")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def runs(seeds):
    """(suite, mode, seed, fault) of every report to digest, in print order."""
    from tancat.suites import FAULT_SUITES, SUITE_NAMES

    for seed in seeds:
        for suite in SUITE_NAMES:
            for mode in MODES:
                yield suite, mode, seed, None
        for fault, suites in FAULT_SUITES.items():
            for suite in suites:
                for mode in MODES:
                    yield suite, mode, seed, fault


def line(suite: str, mode: str, seed: int, fault) -> str:
    from tancat.suites import run_suite

    report = run_suite(suite, mode=mode, seed=seed, fault=fault)
    return f"{suite} {mode} {seed} {fault or '-'} {digest(report)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for run in runs(args.seeds):
        print(line(*run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
