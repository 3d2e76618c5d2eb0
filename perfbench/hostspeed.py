"""Timing that is steady on a shared host.

The cores of a shared host change speed by up to a factor of two, in
phases of a few seconds to tens of seconds, as other tenants come and go;
process CPU time changes with them.  `HostClock` measures that speed while
the benchmark runs: every PERIOD seconds a SIGALRM handler runs `probe`, a
fixed piece of standard-library rational arithmetic that calls no gitloci
code, and records REFERENCE_PROBE_S / its duration as the host's relative
speed at that moment.

All benchmark times are read from `HostClock.net`, wall time minus the time
spent in the handler, so probes cost the measured code nothing.  An
interval of net time is then scaled to *reference seconds* by
`HostClock.rate`: the mean relative speed over the samples taken in it or
within WINDOW of its ends.  REFERENCE_PROBE_S is the probe's time on an
uncontended core of the 2-vCPU x86-64 VM, CPython 3.11, on which the
benchmark was written, so there reference seconds read as wall seconds.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD = 0.05
WINDOW = 0.1
PROBE_STEPS = 250
REFERENCE_PROBE_S = 0.0011


def probe() -> float:
    """Seconds taken by a fixed amount of Fraction arithmetic, with the
    garbage collector paused so that a collection of the program's objects
    does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, PROBE_STEPS):
            acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    def __init__(self) -> None:
        self.spent = 0.0  # seconds spent in the handler so far
        self.at: list[float] = []  # net time of each sample
        self.speed: list[float] = []  # relative speed at each sample
        self._previous = None

    def net(self) -> float:
        """perf_counter() minus the handler's time; the retry makes the two
        reads agree if the handler runs between them."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        took = probe()
        self.at.append(t0 - self.spent)
        self.speed.append(REFERENCE_PROBE_S / took)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.sample()

    def rate(self, start: float, end: float) -> float:
        """Mean relative speed over net times [start, end], widened by
        WINDOW on each side; 1.0 if the clock never sampled."""
        if not self.speed:
            return 1.0
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        if lo == hi:  # no sample near: the nearest one
            k = min(lo, len(self.at) - 1)
            if k > 0 and start - self.at[k - 1] < self.at[k] - end:
                k -= 1
            return self.speed[k]
        return sum(self.speed[lo:hi]) / (hi - lo)

    def mean_speed(self) -> float:
        return sum(self.speed) / len(self.speed) if self.speed else 1.0


CLOCK = HostClock()
