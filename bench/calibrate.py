"""Machine-speed calibration for timings taken on a shared, noisy host.

Other tenants of the host can slow this process by a factor of two for
minutes at a time, far more than any bound a benchmark could hold. Fixed
kernels with the same mix of work as a workload are timed every
CALIBRATE_EVERY seconds between its trials, and each timing is scaled by the
kernels' nominal time over their median time near it, which reports it in
reference seconds: a slow spell slows the kernels as much as the package and
cancels out, while a slower package still shows. How much a slow spell slows
code depends on its mix, so there are two kernels: a Python loop over tiny
numpy arrays, like one IK iteration, and a vectorised dominance ranking with
a leave-one-out hypervolume sweep, like ``tpe.suggest``. This file is part of
the benchmark and must not change between the commits it compares.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.01  # per kernel; about its undisturbed time on a 2.1 GHz Xeon
CALIBRATE_EVERY = 0.25  # s between kernel runs
WINDOW_S = 0.5  # s; kernel runs within this distance of a timing scale it

_MATRIX = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
_VECTOR = np.array([0.3, -0.2, 0.5])
_POINTS = np.random.default_rng(1).random((300, 2))


def loop_kernel() -> float:
    acc = 0.0
    for _ in range(1200):
        b = _MATRIX @ _MATRIX.T
        b[0, 0] += 1e-3
        w = np.clip(b @ _VECTOR, -1.0, 1.0)
        acc += float(np.sqrt(w @ w))
    return acc


def array_kernel() -> float:
    v = _POINTS
    le, lt = v[:, None, :] <= v[None, :, :], v[:, None, :] < v[None, :, :]
    dominates = np.all(le, axis=2) & np.any(lt, axis=2)
    ranks = np.full(len(v), -1)
    rank = 0
    while (ranks == -1).any():
        active = ranks == -1
        ranks[active & ((dominates & active[:, None]).sum(axis=0) == 0)] = rank
        rank += 1
    front = v[ranks == 0]
    total = 0.0
    for i in range(len(front)):
        rest = np.delete(front, i, axis=0)
        prev = 2.0
        for x, y in rest[np.argsort(rest[:, 0])]:
            if y < prev:
                total += (2.0 - x) * (prev - y)
                prev = y
    return total + rank


class Calibrator:
    """Timings (midpoint, seconds) of one run of the kernels, taken while a run goes on."""

    def __init__(self, kernels):
        self.kernels = kernels
        self.samples: list[tuple[float, float]] = []
        self._times: list[float] = []  # sample midpoints, ascending
        self._last = -float("inf")
        self._run()  # the first run pays numpy's one-time set-up; keep it out of the samples

    def _run(self) -> None:
        for kernel in self.kernels:
            kernel()

    def sample(self) -> None:
        start = perf_counter()
        self._run()
        end = perf_counter()
        self.samples.append((0.5 * (start + end), end - start))
        self._times.append(0.5 * (start + end))
        self._last = end

    def maybe_sample(self) -> bool:
        """Run the kernel if CALIBRATE_EVERY has passed since the last run; True if it ran."""
        if perf_counter() - self._last < CALIBRATE_EVERY:
            return False
        self.sample()
        return True

    def scale(self, at: float) -> float:
        """Nominal time over the median kernel time within WINDOW_S of time ``at``."""
        times = self._times
        lo = bisect.bisect_left(times, at - WINDOW_S)
        hi = bisect.bisect_right(times, at + WINDOW_S)
        near = [d for _, d in self.samples[lo:hi]]
        if not near:  # no kernel run that close: take the nearest one
            i = min(range(len(times)), key=lambda j: abs(times[j] - at))
            near = [self.samples[i][1]]
        return NOMINAL_S * len(self.kernels) / statistics.median(near)
