"""Machine-speed calibration: a fixed kernel timed between measurements.

The shared hosts this benchmark runs on slow down by 1.3-2x in phases
that last from a second to several minutes; CPU time tracks wall time
through them, so they cannot be measured away. A run's scenario times
are then bimodal, and their median lands in whichever mode held the
run longer: on param-lp, medians of ten runs of the same code spread by
a quarter. A fixed kernel of the same kind of work as the program
(Python-level loops over small numpy arrays, dicts and deques) slows
down with it.

So a run times the kernel before its set-up and after every set-up and
scenario, for about KERNEL_SHARE of the time just measured, so that the
kernel samples the run's phases evenly in time. It reports each time as

    wall_s * REFERENCE_KERNEL_S / mean(kernel times of the run)

where wall_s is the mean of the scenario times, or the median of the
set-up times; that is, in seconds at the machine speed at which the kernel takes
REFERENCE_KERNEL_S. Both means weight each phase by the time the run
spent in it, so the phase mix cancels in their ratio; a ratio of
medians does not cancel it, as each median can flip mode on its own.
Over ten runs per workload this took the spread (interquartile range
over median) of scenario_s from 0.07-0.25 (wall-clock median) and
0.05-0.14 (ratio of medians) to 0.04-0.07.
The kernel does not use the program, so a change to the program moves a
reported time as it moves the wall time at a fixed machine speed. Raw wall times are kept in the result file.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

# The unit that reported seconds are given in: about the kernel's median
# wall time on the 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, one
# BLAS thread) that the benchmark's bounds were set on.
REFERENCE_KERNEL_S = 0.040

# Kernel time after a measured span, as a share of that span.
KERNEL_SHARE = 0.1

_rng = np.random.default_rng(20140201)
_SMALL = _rng.standard_normal((200, 13))
_WIDE = _rng.standard_normal((2000, 13))
_MIX = _rng.standard_normal((13, 13))
_IDX = _rng.integers(0, 200, 200)


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    queue: deque = deque(maxlen=64)
    table: dict = {}
    for i in range(240):
        X = _WIDE if i % 8 == 0 else _SMALL
        Y = np.sin(X) * 0.5 + X @ _MIX
        z = np.clip(Y[:, 3], -1.0, 1.0)
        acc += float(np.take(z, _IDX % z.size).sum())
        for j in range(40):
            queue.append((i, j))
            table[(i * 40 + j) % 97] = acc
        acc += sum(v for _, v in queue) * 1e-12 + len(table)
    if not np.isfinite(acc):
        raise AssertionError("calibration kernel produced a non-finite value")
    return time.perf_counter() - t0


def sample(after_s: float, into: list) -> None:
    """Time the kernel at least once and for about KERNEL_SHARE of
    after_s, appending each time to `into`."""
    spent = 0.0
    while not spent or spent < KERNEL_SHARE * after_s:
        into.append(kernel())
        spent += into[-1]


def speed_factor(kernel_times) -> float:
    """Reference seconds per wall second, from a run's kernel times."""
    return REFERENCE_KERNEL_S / statistics.fmean(kernel_times)
