"""The rescaling to reference speed and the phase figures built on it.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math

import pytest

from loads import Phase
from speed import REFERENCE_S, Speedometer, scale_of


def meter(samples: list[tuple[float, float]]) -> Speedometer:
    speed = Speedometer()
    for at, duration in samples:
        speed.times.append(at)
        speed.durations.append(duration)
    return speed


def test_scale_is_reference_over_the_window_median() -> None:
    speed = meter([(0.0, 1e-3), (0.4, 2e-3), (0.8, 4e-3), (5.0, 8e-3)])
    # Around 0.4 s the window holds 1, 2 and 4 ms: median 2 ms.
    assert speed.scales_at([0.4], 0.5) == [pytest.approx(REFERENCE_S / 2e-3)]
    # Nothing within 0.5 s of 3 s: the nearest task (5 s, 8 ms) stands in.
    assert speed.scales_at([3.0], 0.5) == [pytest.approx(REFERENCE_S / 8e-3)]


def test_a_slower_host_gives_a_smaller_scale() -> None:
    assert scale_of([2e-3, 2e-3, 9.0]) == pytest.approx(REFERENCE_S / 2e-3)
    assert scale_of([4e-3]) < scale_of([2e-3])


def test_the_reference_task_runs_and_is_recorded() -> None:
    speed = Speedometer()
    speed.sample(3)
    assert len(speed.durations) == 3 and all(d > 0.0 for d in speed.durations)
    assert speed.times == sorted(speed.times)


def test_closed_loop_figures_rescale_latency_and_throughput() -> None:
    phase = Phase(latencies_s=[0.010, 0.020, 0.030], scales=[0.5] * 3, plans_done=3)
    phase.close_loop()
    assert phase.latency_ms(50.0) == pytest.approx(10.0)
    assert phase.latency_ms(50.0, rescaled=False) == pytest.approx(20.0)
    # Plans over the time they took: 0.06 s of wall time, 0.03 s rescaled.
    assert phase.plans_per_s(rescaled=False) == pytest.approx(50.0)
    assert phase.plans_per_s() == pytest.approx(100.0)


def test_a_failed_request_counts_as_timed_out() -> None:
    phase = Phase(latencies_s=[0.010, math.inf], scales=[1.0, 1.0], plans_done=1, failed=1)
    phase.close_loop()
    assert phase.latency_ms(99.0) > 1000.0
    assert phase.plans_per_s() == pytest.approx(100.0)
