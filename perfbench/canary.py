"""A fixed unit of interpreter work that tracks how fast the machine runs now.

On a shared machine the same code runs up to about 1.6 times slower while
other tenants load the core, in phases of seconds to minutes.  Timing this
canary around each operation measures the machine's speed at that moment, so
the operation's time can be rescaled to a reference speed.  It is written here,
so that no change to tancat changes its cost.  Of the canaries tried (a small
Fraction product, a larger one with a grlex sort, an allocation loop and this
integer loop), this one tracked the suites' slowdowns best.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The canary's time on the baseline machine (Intel Xeon VM, 2 vCPUs, Python
# 3.11.7) at its fastest; times rescaled to it read as seconds on that machine
# with no other load.
REFERENCE_S = 0.015


def _work() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def measure() -> float:
    """Median time of three canary runs, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _work()
        times.append(perf_counter() - t0)
    return statistics.median(times)
