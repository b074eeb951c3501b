"""The host's speed, sampled while a run measures, and times scaled to it.

The shared 2-vCPU VM this benchmark was tuned on runs the same pure-Python
code at anything from full speed to about half of it, in spells of a few
milliseconds to minutes; the process's CPU time grows with its wall time
the whole while, and no steal time shows. A time taken straight off the
clock therefore moves by more than any bound worth setting. So while a run
measures, a timer signal interrupts it every PERIOD seconds and times a
fixed piece of reference work (the program's kind of work: dict, int and
str operations in the interpreter). A measured span is then reported as
the time it would have taken at full speed:

    (wall time - sampler time inside it) * REF_S / mean reference time

where the mean is over the samples taken during the span, widened to the
nearest MIN_SAMPLES when the span is short. REF_S is the reference work's
time at that host's full speed, so the figures read as milliseconds and
seconds there. A change that makes the program do more or less work moves
the scaled time as it moves the wall time; the host's speed cancels out.
"""

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

PERIOD = 0.01
MIN_SAMPLES = 16
# The reference work's time, in seconds, at the full speed of the host the
# benchmark was tuned on (the fastest samples of several minutes).
REF_S = 0.00023


def reference():
    d = {}
    s = 0
    for i in range(1000):
        d[i & 127] = d.get(i & 127, 0) + i
        s += len(str(i))
    return s


class Sampler:
    """Samples of the reference work's time, taken from a SIGALRM handler
    while `running()` is active."""

    def __init__(self):
        self.at = []    # start of each sample, perf_counter seconds
        self.took = []  # its duration, seconds
        self._paused = False

    def _tick(self, signum, frame):
        if self._paused:
            return
        t0 = time.perf_counter()
        reference()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    @contextmanager
    def paused(self):
        """No samples inside: for submissions that recurse to the
        interpreter's limit, where the handler's own frames would change
        where the limit is hit."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def scaled(self, t0, t1, cpu=None):
        """Seconds the span [t0, t1] of wall time would have taken at full
        speed. Given `cpu`, the process's CPU seconds in the span, those are
        scaled instead, leaving out the time it waited. Call it once the run
        is over, so that samples after a short span are there to widen it
        with."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        own = sum(self.took[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_SAMPLES and hi < len(self.at):
                hi += 1
        if lo == hi:
            raise RuntimeError("no speed samples around a measured span")
        busy = t1 - t0 if cpu is None else cpu
        return (busy - own) * REF_S / statistics.fmean(self.took[lo:hi])
