"""Host-speed calibration: a fixed unit of pure-Python work, timed between
operations, that the timed latencies are scaled by.

On a shared virtual machine the speed of a core changes by half or more,
often within seconds, for the library and any other Python code alike.  The
kernel below uses only the standard library (Euclid on dict polynomials over
Fraction, dict polynomial products mod 101: the kinds of work the library
does), so a change to the library cannot move it.  A latency scaled by
REF_S / (kernel time around it) is the latency on a host where the kernel
takes REF_S; README.md says how well it tracks.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Kernel time that defines the reference host speed (close to its usual time
# on the 2-vCPU machine the benchmark was tuned on).
REF_S = 0.005
# Wall time between kernel samples inside a workload's loop.
EVERY_S = 0.1


def _mul(a, b, p=None):
    out = {}
    for e1, x in a.items():
        for e2, y in b.items():
            v = out.get(e1 + e2, 0) + x * y
            out[e1 + e2] = v % p if p else v
    return {e: v for e, v in out.items() if v}


def _rem(a, b):
    a = dict(a)
    d = max(b)
    while a and max(a) >= d:
        m = max(a)
        q = a[m] / b[d]
        for e, v in b.items():
            a[e + m - d] = a.get(e + m - d, 0) - q * v
        a = {e: v for e, v in a.items() if v}
    return a


def kernel():
    """One fixed unit of work; returns a checksum so it cannot be skipped."""
    acc = Fraction(0)
    for s in range(4):
        a = {e: Fraction((e * s) % 5 - 2, (e + s) % 3 + 1) for e in range(6)}
        b = {e: Fraction((e + s) % 4 - 1, (e * s) % 4 + 1) for e in range(4)}
        x, y = _mul(a, b), _mul(b, b)
        while y:
            x, y = y, _rem(x, y)
        acc += x[max(x)]
    total = 0
    for s in range(90):
        a = {e: (e * s + 3) % 101 for e in range(8)}
        b = {e: (e + 7 * s) % 101 for e in range(8)}
        total += sum(_mul(a, b, 101).values())
    return acc, total


def sample():
    """(midpoint, duration) of one timed kernel run.  The cyclic garbage
    collector is paused for it: a collection would scan the library's live
    objects and tie the kernel's time to the program being measured."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (t0 + t1) / 2, t1 - t0


def median_s(runs=5):
    return statistics.median(sample()[1] for _ in range(runs))


def factors(midpoints, samples):
    """Per-operation scale REF_S / (mean time of the kernel samples taken just
    before and just after the operation).  Samples are in time order and the
    first and last bracket every operation.  The nearest samples track best:
    the host's speed changes within seconds (see README.md)."""
    times = [t for t, _ in samples]
    out = []
    for mid in midpoints:
        j = bisect.bisect(times, mid)
        out.append(2 * REF_S / (samples[j - 1][1] + samples[j][1]))
    return out
