"""A fixed pure-Python reference loop that gauges the machine's speed.

The benchmark runs on a few cores of a shared host.  The speed of one Python
thread there flips between two levels about a factor of two apart, within a
fraction of a second, with the load of the host's other guests.  So every
timed stretch runs under a ``Sampler``: a timer signal interrupts the
program every ``INTERVAL_S`` and times one unit of this loop in the same
process.  The program's time divided by the units' mean time over the same
stretch is its time in units of the reference loop, which follows the
program's own work and cancels most of the host's drift.  The samplers'
own time is left out of the program's time.

The loop does the kind of work hallfix does, in plain Python and without
importing it, so that no change to the program can change the yardstick: a
unit closes A6 from two generators by composing image tuples and storing
them in a set.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import List

#: (1 2 3 4 5) and (4 5 6) as 1-based image tuples; they generate A6.
GENERATORS = ((2, 3, 4, 5, 1, 6), (1, 2, 3, 5, 6, 4))
ORDER = 360

#: Normalised times are in seconds of a machine on which a unit takes this
#: long, about the slower of the two speeds of the machine the baselines in
#: README.md were taken on: measured time * NOMINAL_UNIT_S / unit time.
NOMINAL_UNIT_S = 0.001

#: Wall time between samples; a unit takes about a tenth of it.
INTERVAL_S = 0.01


def unit() -> int:
    """One unit of reference work: the elements of A6 by breadth-first search."""
    identity = tuple(range(1, 7))
    seen = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for g in frontier:
            for s in GENERATORS:
                h = tuple(g[i - 1] for i in s)
                if h not in seen:
                    seen.add(h)
                    found.append(h)
        frontier = found
    return len(seen)


def time_unit() -> float:
    """Time one unit.  The collector is off meanwhile, so that the program's
    heap, which a collection would walk, cannot slow the yardstick; the unit
    frees its own objects by reference counting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        closed = unit()
        spent = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if closed != ORDER:
        raise AssertionError("reference loop closed the wrong group")
    return spent


def normalise(seconds: float, unit_s: float) -> float:
    """A time measured while one unit took ``unit_s``, in seconds of the
    machine on which a unit takes NOMINAL_UNIT_S."""
    return seconds * NOMINAL_UNIT_S / unit_s


class Sampler:
    """While active, times one unit every ``interval`` seconds of wall time
    from a SIGALRM handler, and one on entry.  Use as a context manager in
    the main thread of a process that uses no SIGALRM of its own."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.units: List[float] = []
        self.spent_s = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.units.append(time_unit())
        finally:
            self.spent_s += time.perf_counter() - start
            self._busy = False

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent sampling so far: a
        clock of the program's own time."""
        while True:
            spent = self.spent_s
            now = time.perf_counter()
            if spent == self.spent_s:
                return now - spent

    @property
    def unit_s(self) -> float:
        """The harmonic mean of the units' times.  The samples are spread
        evenly over wall time, so this is the unit time at the mean speed
        the program saw."""
        return len(self.units) / sum(1 / u for u in self.units)
