"""The host's speed, measured beside the workload with a fixed reference task.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same interpreter-bound code runs up to ~1.8x slower for seconds to minutes at
a time, on both cores independently, and the slowdown shows in CPU time as
much as in wall time.  Wall-clock latencies of two runs of the same code
therefore differ by more than the regressions the benchmark has to catch.

So the workloads time a fixed reference task beside their requests: between
every few requests on ``interactive``, every 100 ms on ``coalesced``.  A request's latency is reported at reference speed: its wall
time multiplied by ``REFERENCE_S / t``, where ``t`` is the median time of the
reference tasks run around it.  The task is the benchmark's own code, the
same on every commit, and does the kind of work a request does (dictionary
updates in the interpreter, small numpy calls), so its time follows the
host's speed while a change to the program moves only the request's time.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

#: The reference task's duration at the speed latencies are reported in: its
#: time in the fast periods of the 2-vCPU machine of the README's figures.
REFERENCE_S = 0.0007

_RNG = np.random.default_rng(2012)
_MATRIX = _RNG.random((64, 8))
_WEIGHTS = _RNG.random(8)
_ROWS = _RNG.integers(0, 64, 32)
_KEYS = [f"feature_{i}" for i in range(64)]


def reference_task() -> float:
    """Fixed interpreter and small-array work, independent of the program."""
    counts: dict[str, int] = {}
    total = 0.0
    for _ in range(40):
        for i, key in enumerate(_KEYS):
            counts[key] = counts.get(key, 0) + i
        values = _MATRIX[_ROWS] @ _WEIGHTS
        total += float(np.searchsorted(np.sort(values), 0.5))
        total += float(np.where(values > 0.5, values, 0.0).sum())
    return total


class Speedometer:
    """Times of the reference task, and the rescaling they give."""

    def __init__(self) -> None:
        #: Midpoint (``perf_counter`` seconds) and duration of each task run.
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, n: int = 1) -> None:
        """Run the reference task ``n`` times and record each run."""
        for _ in range(n):
            # CPU time of this thread: another thread holding the interpreter
            # lock meanwhile does not count, the host's slowness does.
            start, cpu = time.perf_counter(), time.thread_time()
            reference_task()
            duration = time.thread_time() - cpu
            self.times.append((start + time.perf_counter()) / 2.0)
            self.durations.append(duration)

    def scales_at(self, times: Sequence[float], window_s: float) -> list[float]:
        """Per time: ``REFERENCE_S`` over the median task time within ``window_s``.

        With no task run inside the window, the nearest one stands in.
        """
        if not self.times:
            raise ValueError("the reference task has not been run")
        at = np.asarray(self.times)
        durations = np.asarray(self.durations)
        query = np.asarray(times, dtype=np.float64)
        lo = np.searchsorted(at, query - window_s, side="left")
        hi = np.searchsorted(at, query + window_s, side="right")
        scales = []
        for when, a, b in zip(query, lo, hi):
            if b > a:
                median = float(np.median(durations[a:b]))
            else:
                median = float(durations[int(np.argmin(np.abs(at - when)))])
            scales.append(REFERENCE_S / median)
        return scales


def scale_of(durations: Sequence[float]) -> float:
    """``REFERENCE_S`` over the median of some reference task durations."""
    return REFERENCE_S / float(np.median(np.asarray(durations, dtype=np.float64)))
