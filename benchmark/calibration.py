"""Machine-speed calibration for the timed runs.

On a shared host the same code runs at different speeds from one minute to
the next: co-tenants slow the CPU by up to about 1.7x for seconds to minutes
at a time, with no CPU steal visible inside the machine.  A fixed kernel that
shares no code with the library (small complex matrix products, reductions
and dict building, the same kind of work the library does) slows down by the
same factor.  The timed run executes the kernel every few tens of
milliseconds, between evaluations, and scales each evaluation's time by ``NOMINAL_S``
divided by the median kernel time around it.  The scaled times read as on a
machine where the kernel takes ``NOMINAL_S``; library changes move them, the
host's load does not.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.75e-3   # the kernel's time on the machine the benchmark was written on, when quiet
NEIGHBOURS = 3        # kernel samples whose median sets an evaluation's scale
SETUP_SAMPLES = 15    # kernel runs that calibrate one set-up


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    a = np.eye(8, dtype=complex) * 0.5
    acc = 0.0
    for i in range(150):
        b = a @ a
        d = {"i": i, "t": (i, i + 1)}
        acc += float(np.sum(np.abs(b))) + len(d)
    return time.perf_counter() - t0


def setup_scale() -> float:
    """Scale for a set-up that has just finished: NOMINAL_S / median kernel time now."""
    return NOMINAL_S / statistics.median(kernel_seconds() for _ in range(SETUP_SAMPLES))


def local_scales(done: list[float], kernel_at: list[float], kernel_s: list[float]) -> list[float]:
    """Per evaluation (completed at ``done[i]``): NOMINAL_S / median of the nearest kernel times.

    ``kernel_at`` holds the start times of the kernel runs (ascending) and
    ``kernel_s`` their durations.
    """
    half = NEIGHBOURS // 2
    out = []
    for t in done:
        j = bisect.bisect_left(kernel_at, t)
        lo = max(0, min(j - half, len(kernel_s) - NEIGHBOURS))
        out.append(NOMINAL_S / statistics.median(kernel_s[lo:lo + NEIGHBOURS]))
    return out
