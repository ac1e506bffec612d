"""List the function bodies in src/tancat that the benchmarked runs never execute.

Runs every suite in both scalar modes at default bounds, and each fault on
each suite it affects (the benchmarked fault pairs) in both modes, through
``tancat.cli.main`` under the stdlib line tracer.  A function counts as run
when any line of its own body (nested function bodies excluded) executes.
Bodies in ``ALLOWED_FILES``, bodies that only raise (but not an abstract
stub's NotImplementedError), and the functions in ``ALLOWED`` are not
reported.  An ``ALLOWED`` name is stale when it names no such function, or
one whose body ran; each stale name is reported too.

    python3 tools/never_run.py

Prints one line per never-run body and per stale allowance, and exits 1 if
there is any, else 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import trace
from typing import Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tancat")

MODES = ("rational", "natural")

# the command line, the expression grammar and the exception types run from
# the CLI's own commands and from input errors, which no suite reaches
ALLOWED_FILES = ("cli.py", "parser.py", "errors.py")

# functions that no benchmarked run reaches, each with the reason it stays:
# the CLI's bundle command reaches the first two
ALLOWED = {
    "bundles.parse_bundle_text": "reads the INI text of `tancat bundle --file`",
    "bundles.load_bundle": "opens the file of `tancat bundle --file`",
    "poly.partial_derivative": "tier-1 checks cdc_D against it, and perfbench/tracer.py TARGETS binds it",
    "poly._affine_power": "only the parser's '^' of an affine base with a constant term, as in dense-kernel",
    "fibration.SimpleMor.__str__": "renders a detail only when a fibration row records its first failure",
    "__init__.__dir__": "only dir(tancat) calls it, and the runs go through tancat.cli",
}


class _PackageOnly:
    """Counts lines in src/tancat and nowhere else.

    ``trace.Ignore`` caches its verdict by bare module name, so once it has
    ignored one standard-library ``__init__`` it ignores the package's too.
    """

    def names(self, filename: str, modulename: str) -> bool:
        return not filename.startswith(SRC + os.sep)


def _body_lines(fn: ast.AST) -> set:
    """Lines of fn's own statements, without a docstring or nested def bodies."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    lines = set()
    for stmt in body:
        lines.update(range(stmt.lineno, stmt.end_lineno + 1))
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.body[0].lineno
                lines.difference_update(range(inner, node.end_lineno + 1))
    return lines


def _raises_only(fn: ast.AST) -> bool:
    """True for a body that only raises, unless it raises NotImplementedError."""
    body = [s for s in fn.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    name = exc.func if isinstance(exc, ast.Call) else exc
    return not (isinstance(name, ast.Name) and name.id == "NotImplementedError")


def functions(path: str):
    """(qualified name, first line, body lines, raises only) of each def in a module."""
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    module = os.path.basename(path)[:-3]

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                yield name, child.lineno, _body_lines(child), _raises_only(child)
                yield from visit(child, name)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}.{child.name}")

    yield from visit(tree, module)


def run_everything() -> dict:
    """Line counts of the runs, keyed by (absolute file name, line)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _PackageOnly()
    out = os.path.join(tempfile.mkdtemp(), "report.json")

    def runs():
        from tancat.cli import main
        from tancat.suites import FAULT_SUITES, SUITE_NAMES

        argvs = [["check", "--suite", s, "--mode", m] for s in SUITE_NAMES for m in MODES]
        argvs += [
            ["check", "--suite", s, "--fault", f, "--mode", m]
            for f, suites in FAULT_SUITES.items()
            for s in suites
            for m in MODES
        ]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", out])
            if code not in (0, 1):
                raise SystemExit(f"{' '.join(argv)} exited {code}")

    tracer.runfunc(runs)
    return {(os.path.abspath(f), line): n for (f, line), n in tracer.results().counts.items()}


def never_run(counts: dict) -> Tuple[list, list]:
    """The never-run bodies that ALLOWED does not name, and the stale ALLOWED names."""
    ran = {key for key, n in counts.items() if n}
    missing, needed = [], set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in ALLOWED_FILES:
            continue
        path = os.path.abspath(os.path.join(SRC, name))
        for qualname, line, body, raises_only in functions(path):
            if raises_only or any((path, n) in ran for n in body):
                continue
            if qualname in ALLOWED:
                needed.add(qualname)
            else:
                missing.append(f"src/tancat/{name}:{line}: {qualname}")
    return missing, sorted(set(ALLOWED) - needed)


def main() -> int:
    missing, stale = never_run(run_everything())
    for entry in missing:
        print(entry)
    for name in stale:
        print(f"stale allowance: {name}")
    print(f"{len(missing)} function bodies never run, {len(stale)} stale allowances", file=sys.stderr)
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
