"""Host-speed reference for normalizing the benchmark's times.

On a shared virtual machine the same pass of pure-Python work can take up to
twice as long from one minute to the next, with CPU time equal to wall time:
the host gets slower, the process is not descheduled.  Run-level medians
cannot hide that.  So every timed segment is also timed against a fixed
reference unit of stdlib-only work (``unit``), sampled from a ``SIGALRM``
handler every ``interval`` seconds while the segment runs.  A segment's
normalized time is its net time (the time spent in the handler is taken out)
times ``REF_S`` over the mean unit time during the segment: the time the
segment would take on a host that runs the unit in ``REF_S`` seconds.

The unit never calls the library, so a change to the library moves the
normalized time by as much as it moves the raw time, while a change in host
speed moves the unit as well and cancels, as far as the unit and the library
slow alike.  Raw times go in the report line.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Roughly the unit's time on the fast state of a 2-vCPU x86-64 VM under
# Python 3.11.  Only ratios against it matter; it makes normalized figures
# read as seconds.
REF_S = 0.001


def unit() -> tuple[list, int]:
    """Fixed work of the kind the library does: Fraction sums under tuple
    keys and a sort, then a thousand small containers built and dropped."""
    acc: dict = {}
    for i in range(1, 120):
        key = (str(i % 37), i % 11)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    objs = {(i, str(i)): [i] for i in range(1000)}
    return sorted(acc, key=repr), len(objs)


def time_unit() -> float:
    """Seconds one ``unit`` takes, with the collector held off so it times the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        unit()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float]) -> float:
    """Multiplier from raw seconds to reference seconds."""
    return REF_S / statistics.fmean(samples)


class Sampler:
    """Times one unit every ``interval`` seconds of wall time while active.

    ``mark`` returns a point; ``since`` returns the net seconds since a point
    (time spent sampling taken out) and the unit samples taken since then,
    plus one taken at each end so a short segment still has two.
    """

    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        if not self._busy:
            self._sample_now()

    def _sample_now(self) -> None:
        self._busy = True
        start = time.perf_counter()
        self.samples.append(time_unit())
        self.spent += time.perf_counter() - start
        self._busy = False

    def net_ns(self) -> int:
        """A nanosecond clock that stands still while the sampler runs."""
        return time.perf_counter_ns() - round(self.spent * 1e9)

    def mark(self) -> tuple[float, float, int]:
        self._sample_now()
        return time.perf_counter(), self.spent, len(self.samples) - 1

    def since(self, point: tuple[float, float, int]) -> tuple[float, list[float]]:
        self._sample_now()
        start, spent, first = point
        net = time.perf_counter() - start - (self.spent - spent)
        return net, self.samples[first:]
