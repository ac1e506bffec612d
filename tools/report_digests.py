"""Print a digest of every suite report, every benchmarked fault report and the CLI's reports.

Each suite line is ``suite mode seed fault sha256``, where the digest is
taken over the report's JSON with keys sorted and ``duration_ms`` removed
(the form ``tests/test_golden.py`` pins), and ``fault`` is ``-`` for a clean
run.  Every suite runs in both scalar modes, and so does each (suite, fault)
pair of ``FAULT_SUITES``, at default bounds and each given seed.  Then one
line ``tancat <arguments> sha256`` follows for each command of ``cli_runs``,
digesting the JSON report it writes with ``--out`` in the same form.

    python3 tools/report_digests.py --seeds 0 7 11 > digests.txt

A change that must leave every report byte-identical shows it by one
``diff`` of this output before and after.  ``tools/report_digests.expected``
holds the output for ``--seeds 0 7 11``, and CI diffs the tool against it:

    python3 tools/report_digests.py --seeds 0 7 11 | diff tools/report_digests.expected -
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODES = ("rational", "natural")
# the bundle file of the CLI's bundle commands, written as bundle.ini; its name is part of one report
BUNDLE_INI = """[bundle]
base = 1
fibre = 1
sigma = x0; x1 + x2
zeta = x0; 0
lambda = 0; x1; x0; 0
"""


def digest(data: dict) -> str:
    """sha256 of a report's dict as sorted JSON; pops its duration_ms."""
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
    return f"{suite} {mode} {seed} {fault or '-'} {digest(report.to_dict())}"


def cli_runs():
    """Arguments of tancat commands whose reports cli.py builds itself (fibre, bundle), in print order."""
    return (
        ("fibre", "--context-dim", "1", "--instances", "5"),
        ("fibre", "--context-dim", "2", "--mode", "natural"),
        ("bundle", "--file", "bundle.ini", "--op", "verify"),
        ("bundle", "--file", "bundle.ini", "--op", "tangent"),
    )


def cli_line(args) -> str:
    """Run tancat with args in a new directory holding bundle.ini, and digest its --out report."""
    from tancat.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("bundle.ini", "w", encoding="utf-8") as fh:
                fh.write(BUNDLE_INI)
            with contextlib.redirect_stdout(io.StringIO()):
                main([*args, "--out", "report.json"])
            with open("report.json", encoding="utf-8") as fh:
                data = json.load(fh)
        finally:
            os.chdir(cwd)
    return f"tancat {' '.join(args)} {digest(data)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for run in runs(args.seeds):
        print(line(*run), flush=True)
    for cli_args in cli_runs():
        print(cli_line(cli_args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
