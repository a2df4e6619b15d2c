"""A fixed reference kernel that gauges how fast the machine runs.

On a shared machine the speed of the same code drifts by tens of percent for
stretches of seconds to minutes, and CPU time drifts with wall time. So a run
times this kernel after timed operations and scales each operation's time by
``REFERENCE_S`` over the median kernel time within ``WINDOW_S`` of it: a
change to calbound moves the scaled times, a slow or fast stretch of the
machine mostly does not. The median over a window, rather than the kernel
right next to an operation, keeps the kernel's own noise out.

The kernel touches nothing of calbound: it is row-wise softmax over a small
and a large array, plain numpy work of the kind calbound's time goes to. It
starts no process: the start of an empty interpreter, tried as a second part
of the kernel, drifted by 10-15 % between processes on a calm machine while
the workloads did not, and so added spread instead of removing it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.035
WINDOW_S = 4.0
# Time the kernel after an operation at most this often; every window then
# holds at least one measurement.
EVERY_S = 1.0

_SMALL = np.random.default_rng(0).random((1000, 10))
_LARGE = np.random.default_rng(1).random((20_000, 10))


def kernel() -> None:
    for rows, times in ((_SMALL, 90), (_LARGE, 6)):
        for _ in range(times):
            p = np.exp(rows - rows.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)


def measure() -> float:
    """Seconds one run of the kernel takes."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor(kernels: list) -> float:
    """What to multiply a time by to scale it to the run's median speed.

    ``kernels`` holds ``(when, seconds)`` kernel measurements.
    """
    return REFERENCE_S / statistics.median(k for _, k in kernels)


def scale(timings: list, kernels: list) -> list:
    """Scale each ``(op, start, end, value)`` timing to the speed around it."""
    out = []
    for _, start, end, value in timings:
        near = [k for when, k in kernels if start - WINDOW_S <= when <= end + WINDOW_S]
        out.append(value * REFERENCE_S / statistics.median(near))
    return out
