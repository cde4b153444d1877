"""Host-speed probe: a fixed reference workload timed next to each measurement.

On a shared host the speed available to one process flips between levels
about 1.6x apart, each lasting from seconds to minutes, so raw wall times of
the same code on the same input differ by ~30% between runs a few minutes
apart.  The probe is a fixed mix of the work the CLI does (dicts of tuples,
a sort, dense matrix products, a small eigen-solve) and never calls
cycleflow, so a change to the program cannot move it.  Timed right before and
after a command in the same process, it measures the host's speed during
that command; `normalize` rescales the command's wall time to the speed at
which the probe takes `REFERENCE_S`.  On a 2-core shared x86 host this cut
the run-to-run spread of command medians from ~30% to ~5%.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the probe's time at the faster of the two speed levels seen on a
# 2-core Intel Xeon VM (15-17 ms; 25-27 ms at the slower one).  Normalized
# times are wall seconds at this speed.
REFERENCE_S = 0.0150
REPEATS = 2

_A = np.random.default_rng(12345).random((160, 160))


def _once() -> float:
    t0 = time.perf_counter()
    d = {}
    for i in range(40_000):
        k = (i % 997, i % 13)
        d[k] = d.get(k, 0.0) + i
    sorted(d.items(), key=lambda kv: -kv[1])
    a = _A
    for _ in range(6):
        a = a @ _A
        a /= a.max()
    np.linalg.eigvals(_A[:60, :60])
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the reference workload takes now (the fastest of `REPEATS`)."""
    return min(_once() for _ in range(REPEATS))


def normalize(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time, rescaled by the probes taken around it."""
    return seconds * REFERENCE_S / math.sqrt(before * after)
