"""Host-speed normalization.

On the small shared hosts this benchmark runs on, a CPU executes the
same instructions up to 2.4x slower from one ten-second stretch to the
next (other tenants share the physical cores), and the two CPUs of a
2-CPU host slow down independently.  No bound tight enough to be useful
survives that, so every time the benchmark reports is normalized:

* a run pins itself, and every process it starts, to one CPU;
* while it measures, a fixed :func:`probe` runs every 50 ms on that
  CPU, timed in thread CPU seconds (time the probe spends descheduled
  does not count, time it runs slowly does);
* each probe speaks for the stretch of time nearer to it than to any
  other probe, and a measured interval is reported as the sum, over
  those stretches, of the seconds it overlaps them times
  ``PROBE_NOMINAL / p``, where ``p`` is that probe's time -- "seconds on
  a CPU running at nominal speed".

Host speed changes within a second, so the sum follows it where one
mean probe time over a whole interval cannot: over 16-18 eight-second
windows of a dense and of a sparse transient on a noisy host, rates
normalized this way spread 1.3% and 2.0% (interquartile range), against
6.7% and 5.6% normalized by the mean probe time of each window.

The samples come from a ``SIGALRM`` handler on the benchmark's main
thread: the thread doing the work for in-process workloads, the client
sharing the server's CPU for the serve workloads.  Either way a probe
holds the CPU the measured work needs, so the probes' own time is
subtracted from the intervals they fall in.  The probe calls no
``repro`` code, so a change to the program cannot move it.

The probe does what the simulator's kernels spend their time on: NumPy
operations on small arrays and the attribute and dictionary traffic of
the Python around them.  Over 18 ten-second windows each of a dense
transient, a lockstep batch transient and a sparse transient, run in
turn on a noisy host, normalized rates spread 5.3%, 7.4% and 2.2%
(interquartile range), against 5.7%, 7.7% and 5.1% when normalized by
a pure-Python arithmetic loop and 21%, 16% and 9% raw.
"""

from __future__ import annotations

import bisect
import os
import signal
import time
from typing import List, Tuple

import numpy as np

#: CPU seconds :func:`probe` typically takes on the reference host
#: (2-vCPU Intel Xeon VM, Python 3.11): 1.4 ms in its fast stretches,
#: about 1.7 ms averaged over runs.  Normalized seconds are seconds at
#: this speed, so a 10-second budget takes about 10 seconds there.
PROBE_NOMINAL = 1.67e-3

#: Seconds between probes.
INTERVAL = 0.05


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


_X = np.linspace(0.0, 1.0, 256)
_Y = _X[::-1].copy()
_M = np.outer(np.linspace(0.1, 1.0, 32), np.linspace(1.0, 0.1, 32))
_V = _M[0].copy()


def probe() -> float:
    """A fixed, deterministic computation (1.4-2.1 ms)."""
    total = 0.0
    for _ in range(100):
        total += float(np.maximum(_X * 1.0001 + _Y, 0.5)[7] + (_M @ _V)[3])
    table = {}
    for i in range(2000):
        pair = _Pair(i, i * 0.5)
        table[i & 255] = pair.a + pair.b
    return total + table[0]


def pin_to_one_cpu() -> int:
    """Restrict this process (and its future children) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedMeter:
    """Samples :func:`probe` every :data:`INTERVAL` seconds from a
    ``SIGALRM`` handler; samples are ``(midpoint, cpu s, wall s)``."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, *_args) -> None:
        c0, w0 = time.thread_time(), time.perf_counter()
        probe()
        c1, w1 = time.thread_time(), time.perf_counter()
        self.samples.append(((w0 + w1) / 2.0, c1 - c0, w1 - w0))

    def start(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def factor(self, start: float, end: float) -> float:
        """Nominal-speed seconds per host second over ``[start, end]``."""
        raw = end - start - sum(s[2] for s in self._inside(start, end))
        return self.normalize(start, end) / raw if raw > 0 else 1.0

    def normalize(self, start: float, end: float) -> float:
        """Nominal-speed seconds of work in ``[start, end]``: each
        sample's stretch of the interval times ``PROBE_NOMINAL`` over its
        probe time, less the probes themselves (the interval as is with
        no samples)."""
        samples = list(self.samples)
        if not samples:
            return max(0.0, end - start)
        mids = [s[0] for s in samples]
        # Sample k speaks for (cut[k-1], cut[k]): the cuts lie halfway
        # between neighbouring samples, the outer stretches are unbounded.
        cuts = [(a + b) / 2.0 for a, b in zip(mids, mids[1:])]
        total = 0.0
        for k in range(bisect.bisect_left(cuts, start), bisect.bisect_left(cuts, end) + 1):
            lo = max(start, cuts[k - 1]) if k > 0 else start
            hi = min(end, cuts[k]) if k < len(cuts) else end
            _, cpu, wall = samples[k]
            if start <= mids[k] <= end:
                hi -= wall
            if hi > lo:
                total += (hi - lo) * PROBE_NOMINAL / cpu
        return total

    def _inside(self, start: float, end: float) -> List[Tuple[float, float, float]]:
        mids = [s[0] for s in self.samples]
        return self.samples[bisect.bisect_left(mids, start):bisect.bisect_right(mids, end)]
