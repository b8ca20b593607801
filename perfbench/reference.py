"""The machine's speed while an operation runs, for latencies in reference units.

The 2-vCPU VMs this benchmark runs on change speed by a fifth within
seconds and stay slow or fast for minutes, which moves every latency of a
run together. ``SpeedSampler`` runs a fixed piece of pure-Python work,
``reference_kernel``, on a timer signal while the operations run, and keeps
when each run of it ended and how long it took. An operation's latency in
reference units is its time less the kernel runs inside it, divided by the
median kernel time around it. The library never runs the kernel, so a change
to the library moves the latency and not the unit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# seconds between kernel runs; a run takes about 0.5 ms, so ~2% of the time
PERIOD = 0.02
# seconds on either side of an operation whose kernel runs give its unit
PAD = 0.1


def reference_kernel() -> int:
    """Fraction and big-int arithmetic, tuples and dict lookups: the kind of
    work the library does."""
    table = {}
    x = Fraction(3, 7)
    for k in range(60):
        x = x * Fraction(k + 2, k + 3) + Fraction(1, k + 1)
        table[(k, k % 5)] = x
    return sum(table[(k, k % 5)].numerator % 97 for k in range(60))


class SpeedSampler:
    """Runs ``reference_kernel`` every ``PERIOD`` seconds of wall time, on
    SIGALRM, between ``start`` and ``stop``. Only the main thread of a
    process can use it, and only one at a time."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter at the end of each kernel run
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.ends, t0)
        return self.durations[lo : bisect.bisect_right(self.ends, t1)]

    def work(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` less the kernel runs between them."""
        return t1 - t0 - sum(self._between(t0, t1))

    def relative(self, t0: float, t1: float) -> float:
        """The operation that ran from ``t0`` to ``t1``, in reference units.
        Call after ``stop``, at least ``PAD`` seconds after ``t1``."""
        return self.work(t0, t1) / statistics.median(self._between(t0 - PAD, t1 + PAD))
