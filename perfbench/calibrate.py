"""Machine-speed gauge that turns measured wall times into calibrated ones.

Shared hosts change speed on a scale of seconds: on a 2-vCPU x86-64
host (numpy 2.4.6, OpenBLAS 0.3.31), one fixed 8x8 eigensolve took
either about 1.9 ms or about 3.6 ms depending on the moment, and a
66-call analyze pass ranged from 2.2 s to 4.2 s within two minutes with
the process never descheduled (CPU time equalled wall time).

So the benchmark reads a gauge right before and right after every timed
interval and, on a wall-clock timer, every SAMPLE_INTERVAL_S inside it.
A reading is the slowdown against the reference speed: the time of one
gauge sweep over REFERENCE_S. Each stretch of the interval between two
readings counts at its length divided by their mean slowdown, and the
time spent in readings is left out, so every time is reported as if the
machine ran at the speed where one sweep takes REFERENCE_S.

Inside an interval the timed sweep follows an untimed one, because the
program evicts the gauge from the caches: a single cold sweep read 4%
slower inside analyze calls and 24% slower inside optimize calls than at
their ends, which made the correction depend on the program rather than
on the machine.

The gauge is one cyclic Jacobi sweep over a fixed complex Hermitian 8x8
matrix in Python and small numpy operations, the same mix of interpreter
and tiny-array work that the program does. It belongs to the benchmark
and never changes with the program.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.3e-3
SAMPLE_INTERVAL_S = 0.02
BOUNDARY_READINGS = 5

_rng = np.random.default_rng(20230118)
_g = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
MATRIX = _g + _g.conj().T


def sweep(a: np.ndarray = MATRIX) -> np.ndarray:
    """One cyclic Jacobi sweep: a unitary rotation zeroing each off-diagonal pair."""
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            g = a[p, q]
            mag = abs(g)
            if mag == 0.0:
                continue
            phase = g / mag
            theta = 0.5 * np.arctan2(2.0 * mag, (a[p, p] - a[q, q]).real)
            c, s = np.cos(theta), np.sin(theta)
            r = np.eye(n, dtype=complex)
            r[p, p], r[p, q] = c, -s
            r[q, p], r[q, q] = s * np.conj(phase), c * np.conj(phase)
            a = r.conj().T @ a @ r
    return a


def reading() -> float:
    """Slowdown against the reference speed, from one timed sweep."""
    start = perf_counter()
    sweep()
    return (perf_counter() - start) / REFERENCE_S


def boundary_reading() -> float:
    return statistics.median(reading() for _ in range(BOUNDARY_READINGS))


class Sampler:
    """Takes gauge readings on a timer while an interval runs.

    marks holds (start, end, slowdown) of every reading; the timer and the
    previous SIGALRM handler are restored on exit.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        sweep()  # refills the caches the program evicted, untimed
        timed_start = perf_counter()
        sweep()
        end = perf_counter()
        self.marks.append((start, end, (end - timed_start) / REFERENCE_S))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def calibrated(start: float, end: float, before: float,
               marks: list[tuple[float, float, float]], after: float) -> tuple[float, float]:
    """(wall seconds, calibrated seconds) of [start, end] with the readings left out.

    before and after are the slowdowns read at the two ends; marks are the
    readings taken inside, any outside [start, end] being ignored.
    """
    points = [(start, start, before)]
    points += [m for m in marks if start <= m[0] and m[1] <= end]
    points.append((end, end, after))
    wall = calibrated_s = 0.0
    for (_, prev_end, prev_slow), (next_start, _, next_slow) in zip(points, points[1:]):
        stretch = next_start - prev_end
        wall += stretch
        calibrated_s += stretch * 2.0 / (prev_slow + next_slow)
    return wall, calibrated_s
