"""A speed reference, run in small slices in between the measured work.

The benchmark's machine shares its physical cores with other machines, and
their load changes how fast the same Python code runs, by up to 2x, for
periods from a fraction of a second to minutes.  Slow periods that outlast a
run cannot be averaged away inside it.  So a timer signal interrupts the
measured work every PERIOD seconds and runs a fixed slice of reference work:
Gaussian-rational row reduction in plain Python, which shares no code with
qact.  Each slice measures the machine's speed at that moment.

``Reference.clock()`` counts nominal seconds: seconds on a core on which one
unit of reference work takes UNIT_S seconds.  The wall time since the last
slice is scaled by the speed that slice measured, and the slices' own time
is left out.  A slow period slows the work and the slices alike, so the
nominal time of the work stays.

The reference must not change: every time the benchmark reports is in its
terms.
"""

from __future__ import annotations

import random
import signal
from math import gcd
from time import perf_counter

PERIOD = 0.025  # seconds of wall time between two reference slices
UNITS = 2  # units of reference work per slice, about 4 ms at the nominal speed
UNIT_S = 0.002  # seconds of one unit at the nominal speed


class _Gauss:
    """(a + b*i)/d with d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1):
        if d < 0:
            a, b, d = -a, -b, -d
        if d != 1:
            g = gcd(gcd(a, b), d)
            if g > 1:
                a, b, d = a // g, b // g, d // g
        self.a, self.b, self.d = a, b, d

    def __mul__(self, o):
        return _Gauss(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    def __sub__(self, o):
        return _Gauss(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d)

    def inv(self):
        return _Gauss(self.a * self.d, -self.b * self.d, self.a * self.a + self.b * self.b)

    def __bool__(self):
        return self.a != 0 or self.b != 0


def _rank(matrix) -> int:
    rows = [list(row) for row in matrix]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


def _matrices():
    rng = random.Random(12345)
    return [
        [[_Gauss(rng.randint(-3, 3), rng.randint(-1, 1), rng.choice((1, 2, 3))) for _ in range(5)] for _ in range(5)]
        for _ in range(8)
    ]


_MATRICES = _matrices()
_RANKS = [_rank(m) for m in _MATRICES]


def unit() -> None:
    """One unit of reference work: the rank of eight 5x5 Gaussian-rational matrices."""
    if [_rank(m) for m in _MATRICES] != _RANKS:
        raise AssertionError("reference work gave a different answer")


class Reference:
    """Reference slices on a timer signal, and the nominal clock they give.

    Use as a context manager; the timer runs only inside the ``with`` block.
    """

    def __init__(self):
        self.spent = 0.0  # wall seconds inside reference slices
        self.slices = 0
        # (nominal seconds up to the end of the last slice, its wall end, its speed):
        # one tuple, so that the signal handler replaces it in one step.
        self._state = (0.0, 0.0, 1.0)
        self._previous = None

    def __enter__(self) -> "Reference":
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        self._slice()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _slice(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        for _ in range(UNITS):
            unit()
        t1 = perf_counter()
        nominal, end, speed = self._state
        if self.slices:
            nominal += (t0 - end) * speed
        self._state = (nominal, t1, UNITS * UNIT_S / (t1 - t0))
        self.spent += t1 - t0
        self.slices += 1

    def clock(self) -> float:
        """Nominal seconds of work since the timer started."""
        while True:
            state = self._state
            now = perf_counter()
            if state is self._state:  # no slice ran between the two reads
                nominal, end, speed = state
                return nominal + (now - end) * speed
