"""Calibrated time: wall time with its CPU part rescaled to a reference speed.

The 2-core reference machine shares its host. Its single-thread speed drifts
by up to ~40% in spells of seconds to minutes: a fixed loop takes 21-23 ms in
one spell and 28-33 ms in the next. Medians over many samples in a 25 s run
do not remove spells that last the whole run, so raw wall times of the
CPU-bound workloads spread by up to ~30% between runs.

A probe therefore runs a fixed reference computation every PROBE_INTERVAL_S
from a SIGALRM handler and records how long it took. An operation's time is
then reported as

    calibrated = wall - cpu + cpu * REFERENCE_MS / reference

where `cpu` is the main thread's CPU time during the operation and
REFERENCE_MS / reference is averaged over the probes around it: CPU work is
rescaled to the speed at which the reference takes REFERENCE_MS, while
waiting (the fake endpoint's injected delay) stays as measured. Averaging
the speed rather than the probe time keeps a probe that was itself
preempted from counting for more than one probe. The probe's own time is
taken out of both wall and CPU time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_MS = 1.0  # about the reference's time on the 2-core reference machine
PROBE_INTERVAL_S = 0.05
WINDOW_S = 0.5  # probes this far around an operation set its reference

_MATRIX = np.random.default_rng(0).random((48, 12))
_VECTOR = np.random.default_rng(1).random(8)


def reference() -> None:
    """A fixed mix of the workloads' kinds of work: an interpreted loop, many
    tiny numpy operations (as in the dynamics) and a k-means-like distance step."""
    total = 0
    for i in range(2800):
        total += i * i % 7
    v = _VECTOR
    for _ in range(85):
        v = np.abs(v - v.mean()) * 0.5 + np.full(len(v), 0.25)
    for _ in range(14):
        d = ((_MATRIX[:, None, :] - _MATRIX[None, :3, :]) ** 2).sum(axis=2)
        np.argmin(d, axis=1)


class Probe:
    """Runs `reference` on a timer and calibrates operations against it."""

    def __init__(self):
        self.times: list[float] = []  # probe start, perf_counter
        self.ms: list[float] = []
        self.spent = 0.0  # wall (= CPU) seconds spent inside probes

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self.times.append(start)
        self.ms.append(took * 1e3)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, float]:
        """A point to measure an operation from: (wall, thread CPU, probe time)."""
        return time.perf_counter(), time.thread_time(), self.spent

    def calibrated(self, begin: tuple, end: tuple) -> tuple[float, float]:
        """(raw wall seconds, calibrated seconds) between two marks."""
        spent = end[2] - begin[2]
        wall = end[0] - begin[0] - spent
        cpu = max(0.0, min(wall, end[1] - begin[1] - spent))
        lo = bisect.bisect_left(self.times, begin[0] - WINDOW_S)
        hi = bisect.bisect_right(self.times, end[0] + WINDOW_S)
        speed = statistics.fmean(REFERENCE_MS / ms for ms in self.ms[lo:hi]) if hi > lo else 1.0
        return wall, wall - cpu + cpu * speed

    def median_ms(self) -> float:
        return statistics.median(self.ms) if self.ms else 0.0
