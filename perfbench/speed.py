"""Machine speed, from a fixed task run alongside the work.

On a shared host the core runs at different speeds as other tenants come
and go: about 1.8x apart on the host this benchmark was written on,
switching every few tens of milliseconds and drifting over minutes.  A
wall time then measures the neighbours as much as the program.

A Speedometer runs calibrate(), a fixed pure-Python task that never calls
a4csl, from a timer signal every PERIOD_S seconds while the work runs, and
records how long each run took.  A time scaled by REFERENCE_S / (mean task
time over the same interval) is the time at reference speed: what the work
would have taken on a machine where the task takes REFERENCE_S.  A change
to the program moves it in full, because the task does not run the program.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from math import isqrt
from time import perf_counter

from reference import admissible_data

PERIOD_S = 0.02
# A round figure near the task's time on a 2-vCPU Intel Xeon host with
# Python 3.11.  It only sets the scale.
REFERENCE_S = 0.001

_VECTORS = [
    (3, -1, 2, 0, -2, 1, 3, -3), (1, 2, -3, 1, 0, -2, 2, 1), (-2, 0, 1, 3, 1, -1, -3, 2),
    (0, 3, -1, -2, 2, 2, 1, -1), (2, -3, 0, 1, -1, 3, -2, 0), (-1, 1, 3, -3, 3, 0, 1, 2),
]
_MATRIX = [
    [Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(5, 4), Fraction(-7, 3)],
    [Fraction(1, 4), Fraction(4), Fraction(-3, 2), Fraction(2, 3), Fraction(1)],
    [Fraction(-5, 3), Fraction(2, 5), Fraction(1, 2), Fraction(-3), Fraction(4, 3)],
    [Fraction(2), Fraction(-1), Fraction(7, 4), Fraction(1, 3), Fraction(-1, 2)],
    [Fraction(1, 5), Fraction(3, 2), Fraction(-2, 3), Fraction(5, 2), Fraction(2)],
]


def _det(rows) -> Fraction:
    """Determinant by Fraction elimination."""
    m = [list(r) for r in rows]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next(k for k in range(i, len(m)) if m[k][i])
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for k in range(i + 1, len(m)):
            f = m[k][i] / m[i][i]
            m[k] = [a - f * b for a, b in zip(m[k], m[i])]
    return det


def _ball_points(r: int) -> int:
    """Points of Z^4 with squared length at most r, by a depth-first search
    with isqrt bounds at each level."""
    count = 0
    sa = isqrt(r)
    for a in range(-sa, sa + 1):
        ra = r - a * a
        sb = isqrt(ra)
        for b in range(-sb, sb + 1):
            rb = ra - b * b
            sc = isqrt(rb)
            for c in range(-sc, sc + 1):
                count += 2 * isqrt(rb - c * c) + 1
    return count


_KEYS = [tuple((i * p + i // 19) % 19 - 9 for p in (3, 5, 7, 11, 13, 17, 23, 29)) for i in range(150)]


def _orbit_classes(keys) -> int:
    """Classes of keys under sign change and swapping halves, found by
    keeping the least image of each key in a dict."""
    reps = {}
    for k in keys:
        neg = tuple(-x for x in k)
        key = min(k, neg, k[4:] + k[:4], neg[4:] + neg[:4])
        if key not in reps:
            reps[key] = k
    return len(reps)


def calibrate() -> int:
    """The fixed task: Z[tau] norms of icosian vectors, a rational
    elimination, a short-vector search and an orbit dedup, the kinds of work
    a4csl does, in code of the benchmark's own."""
    found = 0
    for _ in range(2):
        for v in _VECTORS:
            found += admissible_data(v) is not None
    _det(_MATRIX)
    return found + _ball_points(40) + _orbit_classes(_KEYS)


def probe(k: int) -> float:
    """Mean seconds of k back-to-back runs of the task."""
    t0 = perf_counter()
    for _ in range(k):
        calibrate()
    return (perf_counter() - t0) / k


class Speedometer:
    """Runs the task from SIGALRM every PERIOD_S seconds inside a with block.

    `samples` holds each run's seconds and `busy` their sum, so a caller can
    take the task's time out of what it measured around it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0
        self._old = None

    def tick(self, *_signal_args) -> None:
        t0 = perf_counter()
        calibrate()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.busy += dt

    def __enter__(self) -> Speedometer:
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
