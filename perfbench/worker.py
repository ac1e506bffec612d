"""One pass of one workload, in a fresh single-threaded process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --out-dir DIR
       [--trace] [--setup-only]

Prints "ready" once tancat is imported and the inputs are generated, then
runs every operation once, in order, each waiting for the previous one, with
the canary timed between operations.  The last line of standard output is a
JSON object with each operation's time, canary time, error and output digest,
the process's peak resident memory and, with --trace, the per-layer
statistics; the span tree goes to DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import canary
    import tancat
    import tracer
    import workloads

    if not os.path.abspath(tancat.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"tancat imported from {tancat.__file__}, not from this checkout", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    trace = tracer.Tracer() if args.trace else None
    if trace is not None:
        trace.install()
    results = []
    speed = canary.measure()
    for op in ops:
        t0 = perf_counter()
        try:
            out = op.run() if trace is None else trace.span(op.name, op.run)
        except Exception as exc:  # an operation that raises is a failed verdict
            out = exc
        seconds = perf_counter() - t0
        before, speed = speed, canary.measure()
        try:
            if isinstance(out, Exception):
                raise out
            error, digest = op.check(out)
        except Exception:
            error, digest = traceback.format_exc(limit=3), None
        results.append({"name": op.name, "seconds": seconds, "canary_s": (before + speed) / 2,
                        "error": error, "digest": digest})

    payload = {
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace is not None:
        trace.uninstall()
        payload["layers"] = trace.layer_stats()
        trace.write_spans(os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
