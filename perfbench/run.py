"""tancat benchmark: time to verdict on three closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {suites,dense-kernel,faults} \
        --seed N --seconds S --trace {0,1}

Each pass over a workload's operations runs in its own fresh process
(perfbench/worker.py), one operation at a time.  Every verdict is checked
against a known answer, and the outputs of one seed must agree between
passes.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 repeats passes for about S seconds (at least two) and reports the
end-to-end metrics.  --trace 1 makes one untraced and one traced pass and
reports the per-layer metrics.  See perfbench/README.md for what each metric
means and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import canary  # noqa: E402  (benchmark-local modules; none imports tancat)
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 11
STAT_UNITS = {"calls": "count", "self_s": "s", "terms_out": "count", "terms_in": "count"}
TIME_LIMIT_S = 170.0  # the whole run ends within this, or fails


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def run_worker(workload: str, seed: int, deadline: float, trace=False, setup_only=False):
    """Run one worker process; returns (setup seconds, parsed payload or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", OUT_DIR]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("a worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode} before a result")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def judge(passes):
    """(attempted, failed, messages): errors, plus digests that differ from pass 1."""
    attempted = failed = 0
    messages = []
    first = passes[0]["ops"]
    for p in passes:
        for op, ref in zip(p["ops"], first):
            attempted += 1
            bad = op["error"] or (op["digest"] != ref["digest"] and "output differs between passes")
            if bad:
                failed += 1
                messages.append(f"{op['name']}: {bad}")
    return attempted, failed, messages


def at_reference_speed(op) -> float:
    """An operation's wall time, rescaled by the canary timed around it."""
    return op["seconds"] * canary.REFERENCE_S / op["canary_s"]


def end_to_end(args, deadline):
    start = perf_counter()
    setups, passes = [], []
    while True:
        elapsed = perf_counter() - start
        longest = max((p["wall_s"] for p in passes), default=0.0)
        if len(passes) >= MIN_PASSES and elapsed + longest > args.seconds:
            break
        t0 = perf_counter()
        setup_s, payload = run_worker(args.workload, args.seed, deadline)
        payload["wall_s"] = perf_counter() - t0
        setups.append(setup_s)
        passes.append(payload)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args.workload, args.seed, deadline, setup_only=True)[0])

    # An operation's time is its median over the passes, each rescaled to the
    # canary's reference speed; canary.py says why.
    n = len(passes[0]["ops"])
    times = [statistics.median(at_reference_speed(p["ops"][i]) for p in passes) for i in range(n)]
    wall = sum(statistics.median(p["ops"][i]["seconds"] for p in passes) for i in range(n))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (sum(times), "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[-1], "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} process starts",
        "pass_s": f"sum of {n} operations, each the median of {len(passes)} passes; "
                  f"{wall:.3f} s of wall time",
        "verdict_p50_s": f"over {n} operations",
        "verdict_p90_s": f"over {n} operations",
        "peak_rss_mb": f"median of {len(passes)} pass processes",
    }
    return passes, metrics, notes


def per_layer(args, deadline):
    _, base = run_worker(args.workload, args.seed, deadline)
    _, traced = run_worker(args.workload, args.seed, deadline, trace=True)
    base_s = sum(at_reference_speed(op) for op in base["ops"])
    traced_s = sum(at_reference_speed(op) for op in traced["ops"])
    layers = traced["layers"]
    metrics = {"trace.overhead": (traced_s / base_s, "ratio")}
    for layer in tracer.LAYERS:
        for stat, value in layers[layer].items():
            if stat != "distinct":  # printed in the notes; the metric is its share
                metrics[f"{layer}.{stat}"] = (value, STAT_UNITS.get(stat, "share"))
    own = {op["name"]: at_reference_speed(op) for op in base["ops"]}
    for name in workloads.operation_names():
        metrics[f"{name}.verdict_s"] = (own.get(name, 0.0), "s")
    notes = {
        "trace.overhead": f"traced pass {traced_s:.3f} s / untraced pass {base_s:.3f} s",
    }
    for layer in tracer.DISTINCT:
        row = layers[layer]
        notes[f"{layer}.distinct_share"] = f"{row['distinct']} distinct of {row['calls']} calls"
    return [base, traced], metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tancat", "__init__.py")):
        print("error: src/tancat is missing; run from a tancat checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = perf_counter() + TIME_LIMIT_S
    try:
        measure = per_layer if args.trace else end_to_end
        passes, metrics, notes = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, messages = judge(passes)
    with open(os.path.join(OUT_DIR, f"passes-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(passes, fh)

    print(f"workload {args.workload}, seed {args.seed}, python {platform.python_version()}, "
          f"nproc {os.cpu_count()}")
    for msg in messages:
        print(f"FAILED {msg}")
    print(f"error_share {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
