"""The parameters a suite runs under, and the seeded streams its instances draw from.

SuiteParams validates itself on construction, so every checker that takes
one can trust its fields.  All randomness comes from ``draws``: one stream
per (suite, check group, seed), seeded as "<suite>:<group>:<seed>", so
reports are reproducible byte for byte (modulo wall time) for fixed
parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from . import scalars

# The largest max_dim.  At 16, with default instances, every suite in either
# mode and a fibre run at context 1-3 finish in under 5 s each, under 25 MB
# (derived-differential is the slowest; 2 vCPUs, Python 3.11).  With one
# instance check_cds alone takes 1 s at 32, and at 100,000 the cds suite runs
# out of memory.
MAX_DIM = 16
# The largest max_degree.  At 6, with default instances and max_dim, every
# suite in either mode finished in under 4 s at each of seeds 0-9 (3.5 s at
# most, rational fibration at seed 1; 2 vCPUs, Python 3.11.7).  Rational
# fibration is the slowest, as its compositions multiply degrees; over seeds
# 0-49 its median was 0.65 s, but it took 4.6 s at seed 15, 5.6 s at 46, 6.1 s
# at 40 and 7-9 s at 17.  At 7 it took over 20 s at seed 8, and at 8 at seed 0.
MAX_DEGREE = 6
# The largest instance count.  At 2,000 (default dims and degree; 2 vCPUs,
# Python 3.11.7) every suite in either mode took under 5 s at seeds 0 and 7
# (derived-differential 4.5 s at most), and a fibre run 2.3 s at seed 0.
MAX_INSTANCES = 2000


@dataclass(frozen=True)
class SuiteParams:
    """Scalar mode, random-instance bounds, seed and injected fault of one run.

    The fault is a name that suites.run_suite checks against the suite.
    """

    mode: str = scalars.RATIONAL
    max_dim: int = 3
    max_degree: int = 3
    instances: int = 50
    seed: int = 0
    fault: Optional[str] = None

    def __post_init__(self):
        if self.mode not in scalars.MODES:
            raise ValueError(f"invalid-params: unknown mode {self.mode!r}")
        for key, bound in (("max_dim", MAX_DIM), ("max_degree", MAX_DEGREE), ("instances", MAX_INSTANCES)):
            value = getattr(self, key)
            if type(value) is not int or value < 1:  # a bool is an int to isinstance
                raise ValueError(f"invalid-params: {key} must be an integer >= 1")
            if value > bound:
                raise ValueError(f"invalid-params: {key} must be at most {bound}, got {value}")
        if type(self.seed) is not int:
            raise ValueError("invalid-params: seed must be an integer")


def draws(
    suite: str, group: str, params: SuiteParams, count: Optional[int] = None
) -> Iterator[Tuple[int, random.Random]]:
    """(i, rng) for instances 0 .. count - 1 (params.instances by default).

    Every instance of a (suite, group) draws from one stream, in order.
    """
    rng = random.Random(f"{suite}:{group}:{params.seed}")
    for i in range(params.instances if count is None else count):
        yield i, rng
