"""The host's speed, sampled while a pass runs, so that times can be scaled
to a fixed reference speed.

The benchmark's host is a few cores of a shared machine whose speed drifts
by tens of per cent over seconds to minutes, while the process is never
descheduled: its CPU time equals its wall time, so CPU time does not help.
A run therefore also measures the host: ``Probe`` runs a fixed slice of
pure-Python work (``calibration_slice``, which never touches edgesym) on a
background thread every few milliseconds while a pass runs, and records each
slice's thread CPU time. A pass's *slowness* is the mean slice time over
the pass divided by ``REF_SLICE_S``; a time divided by the slowness is the
time the pass would have taken on a host whose slice takes ``REF_SLICE_S``.

The speed differs between cores and swings by up to 2x within a tenth of a
second, so the probe must share a core with the work it scales. A
``Probe(pin=True)`` keeps the calling thread and its own thread on one CPU
while it is in use; the probe thread then runs whenever the measured thread
yields the GIL, every few milliseconds, on the same core. Work that runs in
other processes over every core is probed unpinned.

A change to edgesym moves the pass's time and not the slices, so scaled
times compare commits; a slower or faster host moves both, and cancels.
The slice is bit-twiddling recursion over ints, like the search kernel;
it allocates no container, so it never triggers the cyclic garbage
collector on its thread.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
from time import perf_counter, thread_time

# A typical mean slice time on the host that defined the benchmark (2-core
# Intel Xeon, Python 3.11.7), so that scaled times read close to the raw
# times there. Only its being fixed matters: it sets the unit of scaled times.
REF_SLICE_S = 7.0e-5
INTERVAL_S = 0.005  # between slices; the waiting releases the GIL
WINDOW_S = 0.05  # a shorter interval is scaled by the slices this close to it
QUEENS = 6


def _queens(n: int, full: int, cols: int, d1: int, d2: int, row: int) -> int:
    if row == n:
        return 1
    found = 0
    free = full & ~(cols | d1 | d2)
    while free:
        low = free & -free
        free ^= low
        found += _queens(n, full, cols | low, ((d1 | low) << 1) & full, (d2 | low) >> 1, row + 1)
    return found


def calibration_slice() -> float:
    """Thread CPU seconds of one fixed slice of work."""
    start = thread_time()
    if _queens(QUEENS, (1 << QUEENS) - 1, 0, 0, 0, 0) != 4:
        raise RuntimeError("calibration slice miscounted")
    return thread_time() - start


def slowness(slices: list[float]) -> float:
    return statistics.fmean(slices) / REF_SLICE_S


class Probe:
    """Samples calibration slices on a background thread while in use::

        with speed.Probe(pin=True) as probe:
            start = perf_counter()
            ...timed work...
            wall = perf_counter() - start
        scaled = probe.scale(start, wall)
    """

    def __init__(self, pin: bool):
        self.pin = pin
        self.ends: list[float] = []  # perf_counter() when each slice ended
        self.slices: list[float] = []
        self._cpus = os.sched_getaffinity(0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._record()

    def _record(self) -> None:
        self.slices.append(calibration_slice())
        self.ends.append(perf_counter())

    def __enter__(self) -> "Probe":
        if self.pin:  # the probe thread inherits the affinity
            os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.slices:  # work shorter than one interval
            self._record()
        if self.pin:
            os.sched_setaffinity(0, self._cpus)

    def slowness(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Slowness over the slices that ended between ``start`` and ``end``,
        an interval widened to ``WINDOW_S`` about its middle if shorter;
        over every slice if none ended there."""
        if end - start < WINDOW_S:
            middle = (start + end) / 2
            start, end = middle - WINDOW_S / 2, middle + WINDOW_S / 2
        chosen = self.slices[bisect.bisect_left(self.ends, start):
                             bisect.bisect_right(self.ends, end)]
        return slowness(chosen or self.slices)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of work that began at ``start``, at the reference speed."""
        return seconds / self.slowness(start, start + seconds)
