"""Machine-speed normalisation of measured times.

On a shared VM the processor's speed changes by up to 2x over minutes and by
about 30% from one second to the next, in CPU time as much as in wall time,
so it is the processor that slows, not the scheduler.  Each timed operation
is therefore bracketed by a fixed calibration kernel, and its time is
reported as `raw * REFERENCE_S / (mean of the two kernel times)`: seconds on
a machine on which the kernel takes REFERENCE_S.  The kernel does not touch
fjohn, so a change to the program moves the normalised time as it moves the
raw one.  Raw times stay in the diagnostics.
"""

import statistics
import time

import numpy as np

# Median kernel time on the 2-core x86-64 VM the benchmark was defined on.
REFERENCE_S = 0.030
_BIG = np.random.default_rng(0).random(200_000)
_SMALL = np.random.default_rng(1).random((1000, 4))
_ROW = np.random.default_rng(2).random(4)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work, small-array and large-array numpy calls.

    The three parts take about a third each.  In a trial on this VM the
    mix tracked the speed of `r_sweep` (small arrays), `detect_contacts`
    (interpreter) and an n = 2 `band_functional` (large arrays) better than
    any one part alone.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60_000):
        acc += i * 0.5
    table = {}
    for i in range(20_000):
        table[(i, i)] = i
    for _ in range(600):
        acc += float(np.exp(-np.max(_SMALL @ _ROW + 0.5)) * np.sum(_SMALL[:, 0]))
    for _ in range(4):
        b = np.exp(-_BIG) * _BIG
        b.sort()
    return time.perf_counter() - t0


def scale() -> float:
    """REFERENCE_S over the median of three kernel runs, for a time taken just before."""
    return REFERENCE_S / statistics.median(calibrate() for _ in range(3))
