"""A clock that rescales measured times to one fixed host speed.

On the shared 2-core host this benchmark was built on, the same Python code
runs up to 1.8 times slower for tens of seconds at a time, and
``process_time`` slows with wall time, so the noise is the host's CPU, not
the scheduler.  Runs of a few tens of seconds then land in fast or slow
phases at random.  While a Clock is open, a timer signal runs a fixed
modular-squaring probe every ``INTERVAL_S`` and records how long it took.
A measured interval is multiplied by ``REF_S`` over the probe's duration,
averaged as a speed over the probes within ``WINDOW_S`` of the interval, so
it reads as the time the work would take on a host where the probe takes
``REF_S``, which is about the wall time on the host the benchmark was
written on.  The probe's own time is taken out of every interval it
interrupts.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.25
# the probe's mean duration over the runs made on a 2-core Intel Xeon host
# with Python 3.11.7 when the benchmark was written
REF_S = 0.000118
_MODULUS = (1 << 61) - 1
_COMPOSITE = 1_000_000_007 * 998_244_353
_PRIMES = tuple(q for q in range(3, 4000, 2)
                if all(q % f for f in range(3, int(q**0.5) + 1, 2)))


def _probe() -> int:
    hits = sum(1 for q in _PRIMES if _COMPOSITE % q == 0)
    x = 3
    for _ in range(300):
        x = (x * x + 1) % _MODULUS
    return x + hits


class Clock:
    """Context manager that probes host speed while it is open."""

    def __init__(self):
        self.ends: list[float] = []
        self.speeds: list[float] = []
        self.probe_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe()
        t1 = perf_counter()
        self.ends.append(t1)
        self.speeds.append(REF_S / (t1 - t0))
        self.probe_s += t1 - t0

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, *args):
        """(fn(*args), wall seconds without probes, start, end)."""
        probed = self.probe_s
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        return result, t1 - t0 - (self.probe_s - probed), t0, t1

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """Seconds measured over [t0, t1], rescaled to the reference speed."""
        if not self.speeds:
            raise RuntimeError("no speed probe has run yet")
        lo = bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect_right(self.ends, t1 + WINDOW_S)
        if lo == hi:  # nothing within the window yet: the latest probe before
            lo, hi = max(lo - 1, 0), max(lo, 1)
        speeds = self.speeds[lo:hi]
        return seconds * sum(speeds) / len(speeds)
