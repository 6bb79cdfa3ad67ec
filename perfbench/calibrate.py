"""Timing at reference speed.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz), process CPU time
tracks wall time, yet a fixed kernel's speed changes by up to 2x over tens of
seconds as other tenants load the host. Run-to-run spreads of raw times reach
20-40%, wider than any useful regression bound. So every end-to-end time is
divided by the mean time of a fixed reference kernel (numpy only, no
kahlerlab code) run just before it, every TICK_S while it runs (from a timer
signal, its time taken out of the operation's) and just after it, and
multiplied by REF_NOMINAL_S: the result is seconds at the speed at which the
reference kernel takes REF_NOMINAL_S. The raw times go to standard error.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from numpy.polynomial import chebyshev as cheb

REF_NOMINAL_S = 0.015  # about the kernel's median time on that machine
TICK_S = 0.5

_X = cheb.chebpts1(160)
_Y = np.exp(_X) * np.sin(3.0 * _X)
_COEF = cheb.chebfit(_X, _Y, 150)
_GRID = np.linspace(-0.99, 0.99, 240)
_warm = False


def _kernel() -> float:
    """Small-array numpy calls, interpreter work and LAPACK least squares,
    the three kinds of work kahlerlab's kernels are made of."""
    acc = 0.0
    for _ in range(6):
        acc += float(cheb.chebval(_GRID, _COEF)[0])
    n = 0
    for i in range(60000):
        n += (i % 7) * 3
    for i in range(4):
        acc += float(cheb.chebfit(_X, _Y + i * 1e-3, 60)[0])
    return acc + n


def reference_s() -> float:
    """Seconds of one pass of the reference kernel. The first call in a
    process runs an extra pass first, which pays numpy's lazy set-up."""
    global _warm
    if not _warm:
        _kernel()
        _warm = True
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def timed(fn, *args, ticks: bool = True, **kwargs):
    """Return (fn's result, raw seconds, seconds at reference speed).

    ticks=False samples the reference only before and after (traced runs,
    where a tick would land inside some layer's span)."""
    refs = [reference_s()]
    in_ticks = 0.0

    def tick(signum, frame):
        nonlocal in_ticks
        t = time.perf_counter()
        refs.append(reference_s())
        in_ticks += time.perf_counter() - t

    old = signal.signal(signal.SIGALRM, tick) if ticks else None
    if ticks:
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        raw = time.perf_counter() - t0
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
    raw -= in_ticks
    refs.append(reference_s())
    return out, raw, raw * REF_NOMINAL_S / statistics.fmean(refs)
