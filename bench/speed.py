"""Machine-speed probe: scales wall times to a fixed reference speed.

On a host shared with other tenants, the speed of one process can swing by
1.5x or more as their load comes and goes, switching back and forth every
10-300 ms; wall time and process CPU time swing together, so neither clock
alone separates the program from its neighbours.  The probe times a fixed
piece of pure-Python work (float arithmetic, dict updates, calls: the mix the
package spends its time in) right before and right after each timed op.

An op's scaled time is its wall time times ``REFERENCE_S`` over the mean
probe time within ``WINDOW_S`` of the op: the time it would have taken at the
speed at which the probe takes ``REFERENCE_S``.  The window averages many
probes, because one 2 ms probe sees a single speed while an op of 200 ms sees
a mix.  ``REFERENCE_S`` is a constant, so the scaled times of two commits
compare directly; they are reported in ms like the raw ones, which the
benchmark prints beside them.
"""

from __future__ import annotations

import bisect
import itertools
import time

PROBE_LOOPS = 15000
# The probe's time on the machine the baseline was recorded on, at its faster
# speed (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_S = 0.002
WINDOW_S = 1.0


def _work(loops: int) -> float:
    table: dict[int, float] = {}
    x = 0.0
    for i in range(loops):
        x = x * 0.5 + float(i)
        key = i & 63
        table[key] = table.get(key, 0.0) + x
    return sum(table.values())


def probe(repeats: int = 1) -> float:
    """Seconds the fixed probe work takes now (mean of ``repeats``)."""
    start = time.perf_counter()
    for _ in range(repeats):
        _work(PROBE_LOOPS)
    return (time.perf_counter() - start) / repeats


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at the
    reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


def scaled_all(ops: list[tuple[float, float]], probes: list[tuple[float, float]]) -> list[float]:
    """Each op's (start, seconds) at the reference speed, from the probes'
    (time taken at, seconds) within ``WINDOW_S`` of it.

    ``probes`` is sorted by time and has one probe at each end of every op.
    """
    times = [t for t, _ in probes]
    sums = list(itertools.accumulate((p for _, p in probes), initial=0.0))
    out = []
    for start, seconds in ops:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, start + seconds + WINDOW_S)
        out.append(seconds * REFERENCE_S * (hi - lo) / (sums[hi] - sums[lo]))
    return out
