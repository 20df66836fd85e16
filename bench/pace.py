"""Machine-speed reference for the benchmark's timings.

The benchmark's end-to-end times are reported in reference units: an
operation's wall time measured against the wall time of a fixed reference
kernel run on the same core at about the same moment.  On a machine whose speed
changes from second to second (a shared host, frequency scaling, a busy
sibling core) both slow down together, so the ratio keeps what the code
costs and drops most of what the machine's state added.  The raw wall times
are still recorded and printed beside the ratios.

:class:`Pacer` times the reference from a ``SIGALRM`` handler every
``interval`` seconds during set-up and the timed loop, so long operations
are sampled while they run.  Python runs the handler between bytecodes of
the main thread, so a sample lands inside whatever operation is running;
:meth:`Pacer.busy` removes the samples' own time from an operation's wall
time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Seconds per reference unit in ``setup_s``, which BENCHMARK.json requires in
# seconds: about the kernel's time on an idle core of a 2-core x86-64 host.
NOMINAL_REF_S = 0.5e-3

_rng = np.random.default_rng(20220828)
# 28 random 2x2 unitaries, the size of an 8-mode mesh's blocks
_BLOCKS = [np.linalg.qr(_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)))[0]
           for _ in range(28)]


def reference_s(calls: int = 5) -> float:
    """Median time of a few reference calls: the unit measured right now."""
    return statistics.median(reference() for _ in range(calls))


def reference() -> float:
    """Run the reference kernel once and return its wall time in seconds.

    The mix matches the program's: a Python loop over tiny complex matrix
    products, then plain interpreted arithmetic.  It takes about 0.5 ms.
    """
    start = time.perf_counter()
    v = np.ones(8, dtype=complex)
    for _ in range(6):
        for j, block in enumerate(_BLOCKS):
            m = 2 * (j % 4)
            v[m:m + 2] = block @ v[m:m + 2]
    s = 0.0
    for i in range(3000):
        s += (i * 0.5) % 7.0
    return time.perf_counter() - start


class Pacer:
    """Samples the reference kernel every ``interval`` seconds inside ``with`` blocks.

    One pacer can be entered several times; it keeps every sample.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.at: list[float] = []  # when each sample started
        self.ref: list[float] = []  # how long it took

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ref.append(reference())
        self.at.append(start)

    def __enter__(self) -> "Pacer":
        self._sample(signal.SIGALRM, None)  # so even a short block has a unit
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] without the samples taken inside it."""
        i, j = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        return (t1 - t0) - sum(self.ref[i:j])

    def cost(self, t0: float, t1: float) -> float:
        """Busy time of [t0, t1] in reference units.

        Work done in a stretch of time is its length over the unit at that
        moment, and the samples are evenly spaced, so the cost is the busy
        time times the mean inverse of the samples taken inside the interval
        (for an interval too short to hold one, of those just before and
        after).  Unlike a median, this stays right when a long operation
        runs partly in a slow machine state and partly in a fast one.
        """
        i, j = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        near = self.ref[i:j] or self.ref[max(i - 1, 0):i + 1]
        return self.busy(t0, t1) * statistics.fmean(1.0 / r for r in near)
