"""Host speed, tracked by a fixed reference computation.

The speed of a shared host drifts by a fifth and more from minute to
minute, and process time drifts with it, so raw wall times of two runs
of the same code differ by more than any useful bound.  A round therefore
times `reference()`, a fixed piece of pure-Python rational and dictionary
work that does not touch `lieconformal`, every SAMPLE_EVERY_S seconds:
a timer signal runs it between bytecodes, so long operations are sampled
inside too.  Each measured interval is converted to nominal seconds
piece by piece: the interval is cut at the samples inside it, whose own
time is left out, and each piece counts its length times REFERENCE_S
over the reference duration interpolated at the piece's midpoint.  A
change to the program moves the intervals and not the reference.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# nominal duration of one reference() call; it sets the scale of every time
REFERENCE_S = 0.010
# period of the reference samples
SAMPLE_EVERY_S = 0.2


def reference() -> dict:
    """Fixed memo-building work with rationals, like the kernel's inner loops."""
    memo = {}
    f = Fraction(2, 3)
    for i in range(200):
        key = ((i % 7, i % 5), (i % 11, i % 3), i)
        out: dict = {}
        for j in range(8):
            w = (key[0], (j, i % 13))
            out[w] = out.get(w, 0) + f * (j + 1) / (i % 5 + 1)
        memo[key] = out
    return memo


def reference_s() -> float:
    """Duration of one reference() call, without garbage collection."""
    gc.disable()
    try:
        t = time.perf_counter()
        reference()
        return time.perf_counter() - t
    finally:
        gc.enable()


class SpeedTrack:
    """Reference durations sampled over time; converts intervals to nominal seconds."""

    def __init__(self):
        self.starts: list[float] = []  # when each sample began
        self.times: list[float] = []  # when each sample ended
        self.durations: list[float] = []

    def sample(self) -> None:
        """Time one reference call, stamped with the times it began and ended."""
        start = time.perf_counter()
        self.durations.append(reference_s())
        self.starts.append(start)
        self.times.append(time.perf_counter())

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def start_timer(self) -> None:
        """Sample every SAMPLE_EVERY_S seconds from now on, inside operations too."""
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def stop(self) -> None:
        """Stop the timer, if started, and take the last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def duration_at(self, t: float) -> float:
        """Reference duration at time t, linear between the neighbouring samples."""
        i = bisect.bisect(self.times, t)
        if i == 0:
            return self.durations[0]
        if i == len(self.times):
            return self.durations[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        d0, d1 = self.durations[i - 1], self.durations[i]
        return d0 + (d1 - d0) * (t - t0) / (t1 - t0)

    def pieces(self, start: float, end: float):
        """The interval from start to end cut at the samples inside it, without them."""
        t = start
        for k in range(bisect.bisect_right(self.times, start),
                       bisect.bisect_left(self.times, end)):
            yield t, self.starts[k]
            t = self.times[k]
        yield t, end

    def nominal(self, start: float, end: float) -> float:
        """The interval from start to end in nominal seconds."""
        return sum((b - a) * REFERENCE_S / self.duration_at((a + b) / 2)
                   for a, b in self.pieces(start, end))
