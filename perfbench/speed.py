"""The machine's speed, sampled from inside the process that is timed.

The benchmark runs on a few cores of a shared host.  The speed of those cores
drifts by about +-20% over tens of seconds and then holds for a while, and
process CPU time drifts with wall time, so neither is steady from one run to
the next.  A fixed pure-Python chunk of work, timed many times while the
program runs, slows down with it.  `Probe` times that chunk on a timer
signal (every `INTERVAL_S` seconds of wall time, between two bytecodes of
the program) and turns a measured interval into *reference seconds*: its
wall time minus the probe's own time, scaled by the mean speed of the chunks
taken in it relative to `REF_CHUNK_S`.  Work that is the same takes the same
reference seconds in a slow stretch and in a fast one.  See README.md,
"Reference seconds".
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01      # one chunk per this much wall time
CHUNK_LOOPS = 600      # size of the chunk
REF_CHUNK_S = 50e-6    # the chunk's time at the reference speed
BURST = 40             # chunks taken back to back by `burst`


def _chunk() -> int:
    s = 0
    for i in range(CHUNK_LOOPS):
        s += (i * i) & 7
    return s


class Probe:
    """Samples the chunk; `window` reports an interval in reference seconds."""

    def __init__(self):
        self.inv_sum = 0.0     # sum of 1/duration over chunks taken
        self.count = 0
        self.spent = 0.0       # wall time spent in chunks

    def sample(self) -> None:
        t0 = time.perf_counter()
        _chunk()
        d = time.perf_counter() - t0
        self.inv_sum += 1.0 / d
        self.count += 1
        self.spent += d

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def _on_signal(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        """A point in time.  One chunk is taken just after it, so that every
        window holds at least one sample."""
        mark = time.perf_counter(), self.inv_sum, self.count, self.spent
        self.sample()
        return mark

    def window(self, mark: tuple) -> tuple[float, float]:
        """(wall seconds, reference seconds) since `mark`, both without the
        probe's own time."""
        t0, inv0, n0, spent0 = mark
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        mean_speed = (self.inv_sum - inv0) / (self.count - n0) * REF_CHUNK_S
        return wall, wall * mean_speed

    def between_bursts(self, fn) -> tuple:
        """Call `fn` with a burst of chunks just before and just after it,
        for work that the timer cannot reach (another process); return its
        result, wall seconds and reference seconds."""
        inv0, n0 = self.inv_sum, self.count
        self.burst()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.burst()
        mean_speed = (self.inv_sum - inv0) / (self.count - n0) * REF_CHUNK_S
        return result, wall, wall * mean_speed
