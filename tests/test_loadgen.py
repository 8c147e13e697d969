"""Open-loop load generation charges a slow submit to the requests it delays.

An open-loop request's latency runs from its due time on the seeded
schedule.  If a ``submit`` blocks, every request due meanwhile waits behind
it, and that wait is part of what a caller arriving at the due time would
see; timing from the (late) submit instead would hide it (coordinated
omission).  A stub server whose first ``submit`` stalls pins this.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from types import SimpleNamespace

from repro.serving.loadgen import LoadConfig, build_trace, run_load
from repro.serving.scenarios import Scenario

STALL_S = 0.25


class _StallingServer:
    """Completes every request at once, but its first ``submit`` blocks."""

    def __init__(self, stall_s: float) -> None:
        self.stall_s = stall_s
        self.calls = 0
        snapshot = SimpleNamespace(queue_wait_p50_ms=0.0, queue_wait_p95_ms=0.0)
        self.service = SimpleNamespace(stats=SimpleNamespace(snapshot=lambda: snapshot))

    def start(self) -> "_StallingServer":
        return self

    def submit(self, plans, resources=None) -> Future:
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall_s)
        future: Future = Future()
        future.set_result(None)
        return future

    def estimate_workload(self, plans, resources=None) -> None:
        return None

    def coalescing_stats(self) -> SimpleNamespace:
        return SimpleNamespace(
            mean_requests_per_batch=1.0, mean_plans_per_batch=1.0, max_queue_depth=0
        )


def _scenarios() -> list[Scenario]:
    return [Scenario("stub", 1.0, plans=(object(),))]


def test_open_loop_latency_includes_a_stalled_submit():
    config = LoadConfig(mode="open", requests=4, warmup=0, qps=1000.0, seed=3)
    trace = build_trace(_scenarios(), config)
    # Every request is due well before the first submit returns.
    assert trace[-1].arrival_s < STALL_S / 5
    report = run_load(_StallingServer(STALL_S), _scenarios(), config)
    assert report.requests == 4 and report.errors == 0
    # The requests behind the stalled one count the stall in their latency.
    floor_ms = (STALL_S - trace[-1].arrival_s) * 1000.0
    assert report.latency.p50_ms >= floor_ms
    assert report.generator_lag_p99_ms >= floor_ms
    record = report.to_record()
    assert record["generator_lag_p99_ms"] == round(report.generator_lag_p99_ms, 3)
    assert "generator lag (ms)" in report.render()


def test_closed_loop_has_no_generator_lag():
    config = LoadConfig(mode="closed", requests=4, warmup=0, concurrency=1, seed=3)
    report = run_load(_StallingServer(0.0), _scenarios(), config)
    assert report.errors == 0
    assert report.generator_lag_p99_ms == 0.0
