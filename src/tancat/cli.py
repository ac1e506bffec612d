"""Command-line front end: suite runner, differential printer, bundle tools.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage,
parse or precondition errors, 3 an unexpected internal error (one line on
stderr, no traceback).
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import lru_cache
from typing import List, Optional

from . import scalars
from .bundles import (
    bracket,
    load_bundle,
    pullback_bundle,
    tangent_of_bundle,
    verify_bundle,
    whitney_sum,
)
from .cdc import cdc_D
from .fibration import FIBRE_PARAMS, verify_fibre_axioms
from .parser import MAX_VARIABLES, bounded_int, parse_polymap
from .poly import polymap_to_str
from .report import Report
from .suites import FAULTS, SUITE_NAMES, SuiteParams, run_suite

# every error of errors.py subclasses ValueError
_USAGE_ERRORS = (ValueError, OSError)


def _emit_report(report: Report, out: Optional[str]) -> int:
    print(report.to_text())
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return 0 if report.all_passed else 1


def _cmd_check(args: argparse.Namespace) -> int:
    report = run_suite(
        args.suite,
        mode=args.mode,
        max_dim=args.max_dim,
        max_degree=args.max_degree,
        instances=args.instances,
        seed=args.seed,
        fault=args.fault,
    )
    return _emit_report(report, args.out)


def _infer_dom(text: str) -> int:
    """One past the largest index in text, capped at MAX_VARIABLES: the parser names larger ones."""
    indices = [bounded_int(tok, MAX_VARIABLES - 1) for tok in re.findall(r"x(\d+)", text)]
    if None in indices:
        return MAX_VARIABLES
    return max(indices) + 1 if indices else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    dom = args.dom if args.dom is not None else _infer_dom(args.expr)
    f = parse_polymap(args.expr, dom, args.mode)
    d = cdc_D(f)
    names = [f"u{i}" for i in range(dom)] + [f"x{i}" for i in range(dom)]
    order = list(range(dom, 2 * dom)) + list(range(dom))
    print(polymap_to_str(d, names, order))
    return 0


def _print_bundle(label: str, b) -> None:
    print(f"{label}: base {b.base}, fibre {b.fibre}, mode {b.mode}")
    print(f"  sigma: {b.sigma}")
    print(f"  zeta: {b.zeta}")
    print(f"  lambda: {b.lam}")


def _emit_bundle_report(b, label: str, out: Optional[str]) -> int:
    report = verify_bundle(b).report(f"verify[{label}]", {"base": b.base, "fibre": b.fibre, "mode": b.mode})
    return _emit_report(report, out)


def _cmd_bundle(args: argparse.Namespace) -> int:
    b = load_bundle(args.file)
    if args.op == "verify":
        return _emit_bundle_report(b, args.file, args.out)
    if args.op == "tangent":
        tb = tangent_of_bundle(b)
        _print_bundle("tangent bundle", tb)
        return _emit_bundle_report(tb, "tangent", args.out)
    if args.op == "pullback":
        if args.map is None or args.map_dom is None:
            raise ValueError("--op pullback needs --map and --map-dom")
        f = parse_polymap(args.map, args.map_dom, b.mode)
        pb = pullback_bundle(f, b)
        _print_bundle("pullback bundle", pb)
        return _emit_bundle_report(pb, "pullback", args.out)
    if args.op == "whitney":
        if args.file2 is None:
            raise ValueError("--op whitney needs --file2")
        b2 = load_bundle(args.file2)
        bs = whitney_sum(b, b2)
        _print_bundle("whitney sum", bs)
        return _emit_bundle_report(bs, "whitney", args.out)
    # bracket: read f : X -> T(E) and print the mediating section
    if args.map is None or args.map_dom is None:
        raise ValueError("--op bracket needs --map and --map-dom")
    f = parse_polymap(args.map, args.map_dom, b.mode)
    print(bracket(f, b))
    return 0


def _cmd_fibre(args: argparse.Namespace) -> int:
    params = SuiteParams(mode=args.mode, max_dim=args.max_dim, instances=args.instances, seed=args.seed)
    report = verify_fibre_axioms(args.context_dim, params).report(
        "fibre-tangent-axioms",
        {
            "context": args.context_dim,
            "payload_bound": params.max_dim,
            "instances": params.instances,
            "seed": params.seed,
            "mode": params.mode,
        },
    )
    return _emit_report(report, args.out)


def dimension(text: str) -> int:
    """The argparse type of --dom and --map-dom: an int from 0 to MAX_VARIABLES."""
    n = int(text)
    if not 0 <= n <= MAX_VARIABLES:
        raise argparse.ArgumentTypeError(f"{n} is not a dimension from 0 to {MAX_VARIABLES}")
    return n


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every main call, built at the first.

    A parser is a reference cycle, and parse_args keeps no state in it.
    """
    ap = argparse.ArgumentParser(
        prog="tancat",
        description="Exact verification of tangent-categorical structure over polynomial models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a named verification suite")
    check.add_argument("--suite", required=True, choices=SUITE_NAMES)
    check.add_argument("--mode", default=scalars.RATIONAL, choices=list(scalars.MODES))
    check.add_argument("--max-dim", type=int, default=SuiteParams.max_dim, dest="max_dim")
    check.add_argument("--max-degree", type=int, default=SuiteParams.max_degree, dest="max_degree")
    check.add_argument("--instances", type=int, default=SuiteParams.instances)
    check.add_argument("--seed", type=int, default=SuiteParams.seed)
    check.add_argument("--out", default=None, help="write the JSON report to this path")
    check.add_argument("--fault", default=None, choices=FAULTS, help="inject a named defect")
    check.set_defaults(func=_cmd_check)

    diff = sub.add_parser("diff", help="print the differential of a polynomial map")
    diff.add_argument("--expr", required=True, help="components separated by ';'")
    diff.add_argument("--dom", type=dimension, default=None, help="domain dimension (inferred if omitted)")
    diff.add_argument("--mode", default=scalars.RATIONAL, choices=list(scalars.MODES))
    diff.set_defaults(func=_cmd_diff)

    bundle = sub.add_parser("bundle", help="operate on a bundle description file")
    bundle.add_argument("--file", required=True, help="INI file with a [bundle] section")
    bundle.add_argument(
        "--op",
        required=True,
        choices=("verify", "tangent", "pullback", "whitney", "bracket"),
    )
    bundle.add_argument("--map", default=None, help="auxiliary map (pullback, bracket)")
    bundle.add_argument("--map-dom", type=dimension, default=None, dest="map_dom")
    bundle.add_argument("--file2", default=None, help="second bundle file (whitney)")
    bundle.add_argument("--out", default=None)
    bundle.set_defaults(func=_cmd_bundle)

    fibre = sub.add_parser("fibre", help="run the tangent axioms inside a fibre")
    fibre.add_argument("--context-dim", type=int, required=True, dest="context_dim")
    fibre.add_argument("--max-dim", type=int, default=FIBRE_PARAMS.max_dim, dest="max_dim")
    fibre.add_argument("--instances", type=int, default=FIBRE_PARAMS.instances)
    fibre.add_argument("--seed", type=int, default=FIBRE_PARAMS.seed)
    fibre.add_argument("--mode", default=scalars.RATIONAL, choices=list(scalars.MODES))
    fibre.add_argument("--out", default=None)
    fibre.set_defaults(func=_cmd_fibre)
    return ap


def _bind_expressions(argv: List[str]) -> List[str]:
    """Join --expr/--map with the item after it: an expression such as "-x0" is not an option."""
    out, items = [], iter(argv)
    for item in items:
        value = next(items, None) if item in ("--expr", "--map") else None
        out.append(item if value is None else f"{item}={value}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(_bind_expressions(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
