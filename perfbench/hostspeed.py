"""Correction of measured times for the speed of a shared host.

On a host shared with other machines the speed of one CPU swings: the
same fixed loop takes 0.6 ms in some stretches and 1.15 ms in others,
and a stretch can outlast a whole run.  A job's wall time then says as
much about the neighbours as about ospkit.

So the benchmark samples the host's speed while it measures.  A sample
is one fixed probe loop: pure-Python work of the kind ospkit does
(``Fraction`` arithmetic, tuple keys, dict stores) that calls nothing in
ospkit, so no change to ospkit moves it.  LOOPS samples are taken right
before and right after each timed span, and one every INTERVAL_S of
wall time inside it, from a timer signal.  ``clock`` leaves out the time
spent in the samples inside spans, so neither a span nor a traced call
pays for them.

The corrected time of a span is its time on a host where one probe loop
takes REFERENCE_S: the span's time times the mean, over its samples, of
REFERENCE_S over the sample's loop time.  REFERENCE_S is about the probe
loop's time on the 2-CPU host the benchmark was tuned on, at that host's
best speed, so corrected times read close to its undisturbed wall times.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

LOOPS = 3  # samples taken right before and right after a span
INTERVAL_S = 0.01  # wall time between two samples inside a span
REFERENCE_S = 0.00025  # a probe loop's time on the reference host


def _loop() -> Fraction:
    total = Fraction(0)
    seen = {}
    for i in range(1, 100):
        total += Fraction(1, i % 97 + 1)
        seen[(i, i % 7)] = total
    return total


class HostSpeed:
    """Samples the host's speed around and inside timed spans."""

    def __init__(self) -> None:
        self.loops: list[float] = []  # every sample's loop time, in s
        self._window: list[float] = []  # samples of the open span
        self._inside = 0.0  # s spent in samples taken inside spans
        self._start = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)

    def clock(self) -> float:
        """``time.perf_counter`` without the samples taken inside spans."""
        return time.perf_counter() - self._inside

    def _sample(self) -> None:
        start = time.perf_counter()
        _loop()
        seconds = time.perf_counter() - start
        self.loops.append(seconds)
        self._window.append(seconds)

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self._inside += time.perf_counter() - start

    def start(self) -> None:
        """Open a span."""
        self._window = []
        for _ in range(LOOPS):
            self._sample()
        self._start = self.clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Close the span: its time in s, and the factor that corrects it."""
        seconds = self.clock() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        for _ in range(LOOPS):
            self._sample()
        factor = statistics.fmean(REFERENCE_S / s for s in self._window)
        return seconds, factor
