"""Speed probes: how fast this machine runs pure-Python arithmetic now.

The benchmark shares a host with other tenants.  The speed of a fixed
pure-Python loop there drifts by up to 1.5x within a minute, so a wall time
alone measures the host as much as the library.  A `Sampler` therefore
interrupts the timed code every INTERVAL_S seconds of wall time (with
SIGALRM) and runs a short probe in the signal handler.  Its `clock()`
stops while a probe runs and reads in reference seconds: the time the code
would have taken on a machine where one probe takes REFERENCE_S.

A probe multiplies two fixed polynomials with Fraction coefficients and
reduces the product modulo x^8 + 1, ITERATIONS times: the kind of
arithmetic the library's cyclotomic fields spend their time on.  It uses
nothing of the library, so a change to the library cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

ITERATIONS = 10
INTERVAL_S = 0.05
# Near the harmonic mean of the probe on a 2-vCPU x86-64 VM under Python
# 3.11.7, which ranged from 2.0 to 3.3 ms per run over half an hour there.
REFERENCE_S = 0.003

_A = tuple(Fraction(k + 1, 2 * k + 3) for k in range(8))
_B = tuple(Fraction(3 * k - 5, k + 2) for k in range(8))


def probe():
    """Seconds taken by ITERATIONS products of _A and _B mod x^8 + 1."""
    t0 = time.perf_counter()
    for _ in range(ITERATIONS):
        c = [Fraction(0)] * 15
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                c[i + j] += x * y
        for k in range(14, 7, -1):
            c[k - 8] -= c[k]
    return time.perf_counter() - t0


class Sampler:
    """Probes on a wall-clock timer, and a clock in reference seconds.

    `clock()` leaves out the time spent in probes and counts every other
    stretch of time between two probes at the speed the later probe
    measured: dt * REFERENCE_S / probe.  The stretch since the last probe
    counts at that probe's speed; the first `with` block starts with a
    probe, so there always is one.  So anything timed with it, an
    operation or a whole round, is scaled by the speed of the host while
    it ran.  `wall()` is the same clock unscaled.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.probes = []
        self._wall = 0.0      # probe-free wall seconds up to _last
        self._scaled = 0.0    # the same in reference seconds
        self._rate = 1.0      # reference seconds per wall second, now
        self._last = time.perf_counter()
        self._previous = None

    def _tick(self, signum, frame):
        dt = time.perf_counter() - self._last
        p = probe()
        self.probes.append(p)
        self._rate = REFERENCE_S / p
        self._wall += dt
        self._scaled += dt * self._rate
        self._last = time.perf_counter()

    def clock(self):
        """Reference seconds, less the time spent in probes."""
        return self._scaled + (time.perf_counter() - self._last) * self._rate

    def wall(self):
        """perf_counter seconds, less the time spent in probes."""
        return self._wall + (time.perf_counter() - self._last)

    def __enter__(self):
        if not self.probes:
            self._tick(None, None)  # so that no stretch counts at rate 1
        # count the stretch since the last probe at the last probe's speed
        self._scaled, self._wall = self.clock(), self.wall()
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self):
        """Reference over this run's speed: REFERENCE_S times the mean of
        1/probe, which weighs every probe's stretch of time alike."""
        return REFERENCE_S / statistics.harmonic_mean(self.probes)
