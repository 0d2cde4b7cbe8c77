"""Times calibrated against the machine's speed at the moment.

The sandbox this benchmark runs in is a shared two-core box whose cores
slow down by 30-70% for seconds at a time.  No steal time shows and CPU
time slows with wall time, so counting CPU seconds does not help, and a
raw median over a 20 s run carries a 15-25% spread between runs of the
same inputs.

:class:`SpeedProbe` samples the machine's speed from inside the timed
regions without touching the program: an interval timer raises SIGALRM
every :data:`PERIOD_S`, and the handler — which Python runs on the main
thread, between two bytecodes of whatever is being timed — times a short
fixed pure-Python loop.  A region's calibrated time is its wall time,
less the probe's own loops, scaled by how much slower than
:data:`REFERENCE_SPIN_S` those loops ran while it lasted: the time the
region would have taken at the box's uncontended speed.  The raw wall
medians are reported beside the calibrated ones in every detail record.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left

#: The probe loop's length and its period.  ~0.9 ms every 50 ms: under 2%
#: of the wall, and taken back out of every region it lands in.
SPIN_ITERATIONS = 20_000
PERIOD_S = 0.05

#: What the loop takes on this box when nothing contends for the core
#: (5th percentile of 15 000 back-to-back runs).  It only fixes the scale
#: of the reported times: elsewhere they read as "on the reference box".
REFERENCE_SPIN_S = 0.00086


class SpeedProbe:
    """Records ``(when, how long the loop took)`` while active."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spins: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        began = time.perf_counter()
        total = 0
        for i in range(SPIN_ITERATIONS):
            total += i * i
        self.times.append(began)
        self.spins.append(time.perf_counter() - began)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Calibrated length of the region ``[start, end)``."""
        low, high = bisect_left(self.times, start), bisect_left(self.times, end)
        inside = self.spins[low:high]
        busy = (end - start) - sum(inside)
        # A region shorter than the period borrows the ticks on each side.
        near = inside or self.spins[max(low - 1, 0) : low + 1]
        if not near:
            return busy
        # Work done is time × speed, so average the speeds (1 / loop time).
        return busy * REFERENCE_SPIN_S * statistics.fmean(1.0 / spin for spin in near)
