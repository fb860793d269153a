"""Machine-speed sampling, to report times at a fixed reference speed.

On a shared machine the speed of a core drifts by tens of percent over
seconds to minutes, while a process's CPU time tracks its wall time, so
neither measure repeats from one run to the next.  ``SpeedSampler`` runs a
fixed reference loop (dict, frozenset and sort work plus a small matrix
product, the mix the program does) for a few milliseconds every
``interval_s`` of wall time, from a SIGALRM handler in the main thread, so
the samples interleave with the work being timed.  ``scaled(t0, t1)``
returns the wall time between two ``time.perf_counter()`` readings with the
samples' own time removed, multiplied by the mean of ``REF_BURST_S / d`` over
the samples taken in between (d is a sample's duration): the seconds the
work would have taken on a machine that runs one reference loop in
``REF_BURST_S``.  ``scaled_rounds`` does the same for many short timed
rounds, each against the samples taken near it.
"""

import gc
import math
import signal
import time

import numpy as np

# Median duration of one timed reference loop over 3 900 samples on a 2-core
# Intel Xeon VM at 2.0 GHz (Python 3.11, numpy 2.4 with OpenBLAS on one
# thread), the machine of the reference figures in README.md.
REF_BURST_S = 0.0024

_WARM_LOOPS = 200  # untimed, so the loop's data is in cache whatever ran before
_LOOPS = 1000
_rng = np.random.default_rng(0)
_W = _rng.standard_normal((24, 64))
_X = _rng.standard_normal((40, 24))


def reference_loop(loops):
    counts = {}
    total = 0
    for i in range(loops):
        key = frozenset((i % 7, i % 11, i % 13))
        counts[key] = counts.get(key, 0) + 1
        total += len(sorted(key | {i % 5}))
        if i % 50 == 0:
            total += int(np.maximum(_X @ _W, 0.0).sum() > 0)
    return total


class SpeedSampler:
    def __init__(self, interval_s=0.1):
        self.interval_s = interval_s
        self.samples = []  # (start, start of the timed loop, end) per sample

    def _tick(self, signum, frame):
        # A garbage collection of the program's heap must not land in a
        # sample; the loop frees everything it allocates.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop(_WARM_LOOPS)
        timed = time.perf_counter()
        reference_loop(_LOOPS)
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((start, timed, end))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0, t1):
        """Wall seconds from t0 to t1, without the samples' own time, at the
        reference speed."""
        inside = self._inside(t0, t1)
        return (t1 - t0 - _busy(inside, t0, t1)) * _speed(inside)

    def scaled_rounds(self, rounds, reach_s=0.25):
        """Per-call seconds of each (start, end, calls) round at the
        reference speed of the samples within ``reach_s`` of it."""
        return [
            (end - start - _busy(self.samples, start, end))
            / calls
            * _speed(self._inside(start - reach_s, end + reach_s))
            for start, end, calls in rounds
        ]

    def _inside(self, t0, t1):
        """The samples inside the window, or the one nearest to it."""
        inside = [s for s in self.samples if t0 <= s[0] and s[2] <= t1]
        if inside or not self.samples:
            return inside
        middle = (t0 + t1) / 2
        return [min(self.samples, key=lambda s: abs(s[0] - middle))]


def _busy(samples, t0, t1):
    return sum(end - start for start, _, end in samples if t0 <= start and end <= t1)


def _speed(samples):
    return math.fsum(REF_BURST_S / (end - timed) for _, timed, end in samples) / len(samples)
