"""A clock that reads in seconds at a fixed reference CPU speed.

On a shared host the speed of one CPU can switch between 1x and 2x of its
fastest within tenths of a second, and stay slow for seconds or minutes, so
plain wall time of the same work spreads by 25-50% from run to run.
``RefClock`` measures how fast the CPU runs while it times.  Every
``INTERVAL_S`` of process CPU time a SIGPROF handler times two short loops
made of what the program's two kinds of scalars are made of: a sum of
``Fraction``s, and multiply-adds on a small Python class of residues modulo
a prime.  Neither uses hopfcyc code.  The calibration time is the geometric
mean of the two: the ``Fraction`` loop slows a little more than the program
when the host is slow, the residue loop a little less, and each alone is
sometimes fooled for a whole repetition where the other is not.  Each
stretch of thread CPU time between two calibrations is scaled by
``REF_CAL_S / c``, where ``c`` is the mean of the two calibration times
around it.  The sum reads how long the work would have taken at the speed
where the calibration takes ``REF_CAL_S``.  The calibrations themselves are
not counted.
Stretches are measured in CPU time, not wall time, so that moments in which
the process waits for a CPU do not count; the program is single-threaded and
waits on nothing else.  The calibration itself is timed on the wall clock:
it is too short to be preempted often, and the CPU clock of this kind of
virtual machine has been seen to stand still over such short spans.

``REF_CAL_S`` is the fastest calibration time seen on the reference machine
(2 vCPU Intel Xeon, Python 3.11.7).  It is a fixed unit, not a measurement:
on another machine the reference seconds differ from wall seconds by a
constant factor, which cancels when two commits are compared there.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

REF_CAL_S = 93e-6
INTERVAL_S = 0.01


class _Residue:
    """An integer modulo a prime; the calibration loop's scalar."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 32003

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.v * other.v)


FRACTION_TERMS = [Fraction(i % 7 + 1, i % 11 + 1) for i in range(100)]
RESIDUE_TERMS = [_Residue(i * 7919 + 3) for i in range(100)]


def _calibrate():
    """Seconds the calibration takes now: the geometric mean of the times
    of the two loops."""
    start = time.perf_counter()
    total = Fraction(0)
    for term in FRACTION_TERMS:
        total += term
    middle = time.perf_counter()
    residue = _Residue(1)
    for term in RESIDUE_TERMS:
        residue = residue * term + term
    return math.sqrt((middle - start) * (time.perf_counter() - middle))


class RefClock:
    """``start()`` ... ``stop()`` times one stretch of work.  ``ref_s`` is
    its length in reference seconds, ``cpu_s`` its plain CPU time without
    the calibrations.  Only one clock may run at a time: it owns SIGPROF."""

    def __init__(self):
        self.ref_s = self.cpu_s = 0.0
        self._last = self._cal = None

    def _step(self):
        now = time.thread_time()
        cal = _calibrate()
        stretch = now - self._last
        self.cpu_s += stretch
        self.ref_s += stretch * REF_CAL_S * 2 / (self._cal + cal)
        self._cal = cal
        self._last = time.thread_time()

    def start(self):
        self._cal = _calibrate()
        signal.signal(signal.SIGPROF, lambda signum, frame: self._step())
        self._last = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._step()
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
