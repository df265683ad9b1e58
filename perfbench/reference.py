"""A fixed reference computation that gauges the machine's current speed.

On a shared host the speed of one core drifts by tens of percent over
minutes, and it drifts much alike for the library's code and for other
Python code that does the same kind of work.  The benchmark therefore runs
this short computation right before and right after every timed job, and
on a timer while the job runs, and reports the job's time in reference
seconds:

    measured time x REFERENCE_WALL_S / median wall time of its samples

(and the same for CPU time with REFERENCE_CPU_S).  The reference is a
product of two sparse polynomials held as dicts of exponent tuples with
Fraction and int coefficients, then an evaluation of the product at a
rational point: the operations ``hirotaweb.polynomials`` spends its time
on.  It lives here, not in the library, so a change to the library moves
the reported times and leaves the reference alone.
"""

from __future__ import annotations

import gc
import operator
import signal
import time
from fractions import Fraction

# About the median time of one reference() call on the baseline machine
# (Intel Xeon KVM guest, 2 vCPUs, Python 3.11.7), so that reference seconds
# come close to that machine's seconds at its usual speed.  They fix the
# unit of the reported times, nothing else; changing them rescales every
# time metric.
REFERENCE_WALL_S = 0.0048
REFERENCE_CPU_S = 0.0048

N_VARS = 6
GAUGE_SAMPLES = 3


def _poly(count: int, step: int) -> dict[tuple[int, ...], object]:
    """A fixed sparse polynomial of ``count`` terms, half of them with
    Fraction coefficients."""
    terms = {}
    for i in range(count):
        exps = tuple((i * step + 1) // 4 ** var % 4 for var in range(N_VARS))
        terms[exps] = Fraction(i + 1, 3) if i % 2 else i - 7
    return terms


_A = _poly(14, 5)
_B = _poly(18, 7)
_POINT = [Fraction(var + 2, 7) for var in range(N_VARS)]


def reference() -> Fraction:
    """One unit of reference work: a sparse product, then its value."""
    out: dict[tuple[int, ...], object] = {}
    add = operator.add
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            key = tuple(map(add, ea, eb))
            cur = out.get(key)
            out[key] = ca * cb if cur is None else cur + ca * cb
    total = Fraction(0)
    for exps, coeff in out.items():
        term = coeff
        for value, e in zip(_POINT, exps):
            if e:
                term *= value ** e
        total += term
    return total


def sample() -> tuple[float, float]:
    """(wall s, cpu s) of one reference() call.  The collector is held off,
    so garbage the library left behind is not collected on the reference's
    clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        reference()
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if enabled:
            gc.enable()


def gauge() -> list[tuple[float, float]]:
    """GAUGE_SAMPLES samples (wall s, cpu s) of reference()."""
    return [sample() for _ in range(GAUGE_SAMPLES)]


class Ticker:
    """Takes a reference sample on a timer signal every ``interval``
    seconds while a job runs, so a job of seconds is gauged across its whole
    length, not only at its ends.  ``spent`` is the time the samples took,
    to be taken off the job's time.  An interval of 0 takes no samples."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def __enter__(self) -> "Ticker":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self) -> tuple[float, float]:
        return (sum(w for w, _ in self.samples), sum(c for _, c in self.samples))
