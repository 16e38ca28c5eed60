"""Adjust measured times for the speed the processor ran at.

On a virtual machine that shares its cores, the speed of the same
interpreter-bound work drifts by up to a factor of two within minutes (on a
2-vCPU x86-64 VM, one ``verify-paper`` run took from 0.37 to 0.65 s over ten
minutes); no run length averages that away.  While a ``Gauge`` is running, a
timer signal interrupts the benchmark every ``INTERVAL_S`` seconds and times
a fixed kernel.  A measured interval, less the readings taken inside it, is
scaled by ``REFERENCE_S`` over the mean reading around it, which gives
seconds at a fixed reference speed.  The kernel is the benchmark's own code,
so a change in the program shows in the adjusted times in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# Kernel time at the reference speed: about its time on an idle 2-vCPU
# x86-64 VM with CPython 3.11.
REFERENCE_S = 0.0025
INTERVAL_S = 0.25
# An operation's speed is the mean reading over it and this long on each
# side, so that short operations are not judged by one or two readings.
SMOOTHING_S = 1.0


def kernel() -> None:
    """The program's commonest work in miniature: integer pairings through a
    Gram matrix, and a recursive generator emitting the candidate tuples of a
    small box, each tested by a linear form."""
    n = 8
    gram = [[(i * 7 + j * 3) % 5 - 2 for j in range(n)] for i in range(n)]
    for k in range(150):
        v = tuple((k + i) % 7 - 3 for i in range(n))
        sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n) if gram[i][j] != 0)

    def emit(i, y):
        if i == len(y):
            yield tuple(y)
            return
        for value in range(4):
            y[i] = value
            yield from emit(i + 1, y)

    for t in emit(0, [0] * 5):
        sum(c * x for c, x in zip(t, (1, 2, 3, 4, 5))) % 7


class Gauge:
    """Kernel readings: (start, end, median of three kernel runs)."""

    def __init__(self):
        self.readings: list[tuple[float, float, float]] = []
        self.on_read = None  # called with each reading's duration
        self._busy = False

    def read(self, *_signal_args) -> None:
        if self._busy:  # a timer signal during an explicit reading
            return
        self._busy = True
        try:
            start = perf_counter()
            runs = []
            for _ in range(3):
                run_start = perf_counter()
                kernel()
                runs.append(perf_counter() - run_start)
            end = perf_counter()
            self.readings.append((start, end, statistics.median(runs)))
            if self.on_read is not None:
                self.on_read(end - start)
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self) -> "Gauge":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def scale(self, start: float, end: float) -> float:
        """Reference over the mean reading from the last one that ended
        before ``start`` to the first one that began after ``end``."""
        readings = list(self.readings)
        starts = [r[0] for r in readings]
        ends = [r[1] for r in readings]
        first = max(bisect.bisect_right(ends, start) - 1, 0)
        last = min(bisect.bisect_left(starts, end), len(readings) - 1)
        return REFERENCE_S / statistics.fmean(r[2] for r in readings[first:last + 1])

    def net(self, start: float, end: float) -> float:
        """Time from ``start`` to ``end`` less the readings inside it."""
        return end - start - sum(e - s for s, e, _ in self.readings if start <= s and e <= end)

    def adjust(self, start: float, end: float) -> float:
        """``net`` time at the reference speed."""
        return self.net(start, end) * self.scale(start - SMOOTHING_S, end + SMOOTHING_S)
