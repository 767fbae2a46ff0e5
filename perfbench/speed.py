"""Wall time rescaled to a fixed core speed.

The benchmark runs on cores shared with other machines, and their speed
drifts by up to a factor of two within seconds; medians of raw wall times
then differ between runs by more than any bound worth setting. While a
``SpeedMeter`` is active, a timer signal interrupts the process every
``PERIOD_S`` seconds to time ``reference_s()``, a fixed computation that
uses no invmark code. An interval of work is then weighted, piece by piece
between those samples, by REF_NOMINAL_S over the reference time measured
around each piece, so a drift that slows the reference and the package
alike cancels out. The time spent sampling is left out of every interval
and of every traced span.

End-to-end intervals are rescaled as soon as they end (``rescale``); traced
spans are rescaled after the run (``scaled_s``), when every sample is in.
"""

from __future__ import annotations

import bisect
import json
import signal
import time

import numpy as np

# Time of reference_s() on an uncontended core of the machine the benchmark
# was written on (2-core x86_64 virtual machine, OpenBLAS Haswell kernels,
# 1 thread), so that rescaled times read as seconds on that core.
REF_NOMINAL_S = 0.0035
# Sampling period: the core's speed changes within a second, so a sample
# every quarter second keeps each weighted piece short. Sampling costs about
# 5 % of the wall time, none of it counted.
PERIOD_S = 0.25

_REF_MATRIX = np.random.default_rng(0).random((24, 24))
_REF_DOC = json.dumps({"values": np.random.default_rng(1).random(3000).tolist()})
_U64 = (1 << 64) - 1


def _reference_once() -> float:
    t = time.perf_counter()
    h = 0xCBF29CE484222325
    for i in range(10000):
        h = ((h ^ (i & 255)) * 0x100000001B3) & _U64
    a = _REF_MATRIX
    for _ in range(200):
        a = np.tanh(a @ a.T * 0.01)
    json.loads(_REF_DOC)
    [(i, str(i)) for i in range(2500)]
    return time.perf_counter() - t


def reference_s() -> float:
    """Median of three timings of a fixed computation that mixes the kinds
    of work the package spends its time on: a pure-Python integer hashing
    loop, small matrix products, a JSON parse and many small allocations."""
    return sorted(_reference_once() for _ in range(3))[1]


class SpeedMeter:
    """Samples the core's speed while active (a context manager) and
    rescales intervals measured with ``now()``."""

    def __init__(self):
        # (start ns, end ns, reference seconds), in time order.
        self.samples: list[tuple[int, int, float]] = []
        self._starts: list[int] = []
        self.raw_s = 0.0  # wall seconds of work passed to rescale()
        self._previous_handler = None

    def __enter__(self) -> "SpeedMeter":
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _sample(self):
        start = time.perf_counter_ns()
        ref = reference_s()
        end = time.perf_counter_ns()
        self.samples.append((start, end, ref))
        self._starts.append(start)

    @staticmethod
    def now() -> int:
        return time.perf_counter_ns()

    def rescale(self, start: int, end: int) -> float:
        """``scaled_s``, also adding the interval's raw wall time, sampling
        left out, to ``raw_s``."""
        scaled, raw = self._weigh(start, end)
        self.raw_s += raw
        return scaled

    def scaled_s(self, start: int, end: int) -> float:
        """Seconds of work between two ``now()`` readings, at nominal speed.

        Each piece of the interval between two samples is weighted by
        REF_NOMINAL_S over the mean of their reference times; the piece
        after the last sample so far uses that sample alone, and time spent
        sampling counts for nothing. No piece weighs less than zero, so the
        value is never negative.
        """
        return self._weigh(start, end)[0]

    def _weigh(self, start: int, end: int) -> tuple[float, float]:
        """(scaled seconds, raw seconds) of work between two readings."""
        total = raw = 0.0
        samples = self.samples
        first = max(0, bisect.bisect_right(self._starts, start) - 1)
        for i in range(first, len(samples)):
            s_start, s_end, ref = samples[i]
            if s_start >= end:
                break
            if i + 1 < len(samples):
                gap_end, speed_ref = samples[i + 1][0], 0.5 * (ref + samples[i + 1][2])
            else:
                gap_end, speed_ref = end, ref
            if i == 0 and start < s_start:
                piece = min(end, s_start) - start
                total += piece * REF_NOMINAL_S / ref
                raw += piece
            piece = min(end, gap_end) - max(start, s_end)
            if piece > 0:
                total += piece * REF_NOMINAL_S / speed_ref
                raw += piece
        return total / 1e9, raw / 1e9
