"""Seeded closed/open-loop load generation against the serving layer.

Two standard load-testing disciplines drive the coalescing front:

* **closed loop** — ``concurrency`` worker threads issue requests
  back-to-back: each worker submits, waits for its estimate, then draws the
  next request.  Offered load adapts to service capacity; the measured rate
  *is* the sustained throughput at that concurrency.
* **open loop** — requests arrive on a fixed schedule at ``qps`` requests
  per second (seeded-exponential inter-arrivals, i.e. a Poisson process)
  regardless of completions, which is how latency SLOs are measured without
  coordinated omission: a slow service visibly builds queue depth instead
  of silently slowing the generator down.  Each request's latency runs from
  its *due* time on the schedule, not from when the generator got round to
  submitting it, so a ``submit`` that blocks is charged to every request
  it delays; how late the generator submitted is reported separately as
  the generator lag.

Every run is **deterministic in its seed**: the full request trace —
scenario choice, plan indices, arrival offsets — is generated up front by
:func:`build_trace` from one seeded generator, so the same
:class:`LoadConfig` always offers the same requests in the same order.

The first ``config.warmup`` requests warm caches and the coalescer and are
excluded from the latency/throughput accounting; the remaining
``config.requests`` are the measured window reported as a
:class:`LoadReport` (p50/p95/p99/max latency, sustained throughput,
coalescing and queue-wait statistics).
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.estimator import WorkloadEstimate
from repro.plan.plan import QueryPlan
from repro.serving.coalescer import ConcurrentEstimationService
from repro.serving.scenarios import Scenario

__all__ = [
    "LoadConfig",
    "RequestSpec",
    "LatencySummary",
    "LoadReport",
    "build_trace",
    "run_load",
]

_LOGGER = logging.getLogger("repro.serving.loadgen")

_MODES: tuple[str, ...] = ("closed", "open")


@dataclass(frozen=True)
class LoadConfig:
    """One load-generation run, fully determined by its fields."""

    #: ``"closed"`` (fixed concurrency) or ``"open"`` (fixed arrival rate).
    mode: str = "closed"
    #: Measured requests (after warmup).
    requests: int = 1000
    #: Requests served before measurement starts (cache/coalescer warmup).
    warmup: int = 100
    #: Closed-loop worker threads (also the open-loop completion bound).
    concurrency: int = 8
    #: Open-loop arrival rate in requests/second (ignored when closed).
    qps: float = 200.0
    #: Seed of the request trace (scenarios, plan draws, arrivals).
    seed: int = 17

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.mode == "open" and self.qps <= 0.0:
            raise ValueError("open-loop qps must be > 0")


@dataclass(frozen=True)
class RequestSpec:
    """One request of a pre-generated trace."""

    index: int
    scenario: str
    #: Indices into the scenario's plan pool.
    plan_indices: tuple[int, ...]
    #: Arrival offset from run start in seconds (0.0 in closed loop).
    arrival_s: float
    #: Warmup requests are served but excluded from measurement.
    warmup: bool


def build_trace(
    scenarios: Sequence[Scenario], config: LoadConfig
) -> tuple[RequestSpec, ...]:
    """The deterministic request trace of one run (same seed → same trace)."""
    if not scenarios:
        raise ValueError("need at least one scenario")
    rng = np.random.default_rng(config.seed)
    total = config.warmup + config.requests
    weights = np.asarray([s.weight for s in scenarios], dtype=np.float64)
    probabilities = weights / weights.sum()
    chosen = rng.choice(len(scenarios), size=total, p=probabilities)
    if config.mode == "open":
        arrivals = np.cumsum(rng.exponential(1.0 / config.qps, size=total))
    else:
        arrivals = np.zeros(total, dtype=np.float64)
    specs: list[RequestSpec] = []
    for index in range(total):
        scenario = scenarios[int(chosen[index])]
        draws = rng.integers(
            0, len(scenario.plans), size=scenario.plans_per_request
        )
        specs.append(
            RequestSpec(
                index=index,
                scenario=scenario.name,
                plan_indices=tuple(int(draw) for draw in draws),
                arrival_s=float(arrivals[index]),
                warmup=index < config.warmup,
            )
        )
    return tuple(specs)


@dataclass(frozen=True)
class LatencySummary:
    """Request-latency percentiles of one measured window (milliseconds)."""

    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    mean_ms: float

    @classmethod
    def from_samples(cls, samples_ms: np.ndarray) -> "LatencySummary":
        if samples_ms.size == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0)
        p50, p95, p99 = np.percentile(samples_ms, [50.0, 95.0, 99.0])
        return cls(
            p50_ms=float(p50),
            p95_ms=float(p95),
            p99_ms=float(p99),
            max_ms=float(samples_ms.max()),
            mean_ms=float(samples_ms.mean()),
        )


@dataclass(frozen=True)
class LoadReport:
    """Everything one load run measured, ready for JSON or rendering."""

    mode: str
    requests: int
    warmup: int
    concurrency: int
    #: Open-loop offered rate; 0.0 for closed loop (offered = sustained).
    offered_qps: float
    errors: int
    #: Measured window: first measured start (submit in closed loop, due
    #: time in open loop) to last measured completion.
    duration_s: float
    #: Sustained request throughput over the measured window.
    throughput_rps: float
    #: Sustained plan throughput (requests carry >= 1 plan each).
    plan_throughput_rps: float
    latency: LatencySummary
    #: Coalescing shape over the whole run (incl. warmup).
    mean_requests_per_batch: float
    mean_plans_per_batch: float
    max_queue_depth: int
    queue_wait_p50_ms: float
    queue_wait_p95_ms: float
    #: Open loop: p99 over measured requests of submit time minus due time
    #: (0.0 for closed loop, where requests have no due time).
    generator_lag_p99_ms: float
    #: Measured requests per scenario name.
    scenario_counts: Mapping[str, int] = field(default_factory=dict)

    def to_record(self) -> dict[str, object]:
        """Flat JSON-ready record (the serve-bench/CI exchange format)."""
        return {
            "mode": self.mode,
            "requests": self.requests,
            "warmup": self.warmup,
            "concurrency": self.concurrency,
            "offered_qps": round(self.offered_qps, 3),
            "errors": self.errors,
            "duration_s": round(self.duration_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "plan_throughput_rps": round(self.plan_throughput_rps, 2),
            "latency_p50_ms": round(self.latency.p50_ms, 3),
            "latency_p95_ms": round(self.latency.p95_ms, 3),
            "latency_p99_ms": round(self.latency.p99_ms, 3),
            "latency_max_ms": round(self.latency.max_ms, 3),
            "latency_mean_ms": round(self.latency.mean_ms, 3),
            "mean_requests_per_batch": round(self.mean_requests_per_batch, 2),
            "mean_plans_per_batch": round(self.mean_plans_per_batch, 2),
            "max_queue_depth": self.max_queue_depth,
            "queue_wait_p50_ms": round(self.queue_wait_p50_ms, 3),
            "queue_wait_p95_ms": round(self.queue_wait_p95_ms, 3),
            "generator_lag_p99_ms": round(self.generator_lag_p99_ms, 3),
            "scenario_counts": dict(sorted(self.scenario_counts.items())),
        }

    def render(self) -> str:
        """Human-readable multi-line summary (the CLI output)."""
        lines = [
            f"mode: {self.mode} "
            + (
                f"(offered {self.offered_qps:.0f} req/s)"
                if self.mode == "open"
                else f"(concurrency {self.concurrency})"
            ),
            f"measured requests: {self.requests} (+{self.warmup} warmup), "
            f"errors: {self.errors}",
            f"sustained throughput: {self.throughput_rps:,.0f} req/s "
            f"({self.plan_throughput_rps:,.0f} plans/s) over {self.duration_s:.2f}s",
            f"latency (ms): p50={self.latency.p50_ms:.2f} "
            f"p95={self.latency.p95_ms:.2f} p99={self.latency.p99_ms:.2f} "
            f"max={self.latency.max_ms:.2f}",
            f"coalescing: {self.mean_requests_per_batch:.1f} req/batch, "
            f"{self.mean_plans_per_batch:.1f} plans/batch, "
            f"max queue depth {self.max_queue_depth}",
            f"queue wait (ms): p50={self.queue_wait_p50_ms:.2f} "
            f"p95={self.queue_wait_p95_ms:.2f}",
            f"generator lag (ms): p99={self.generator_lag_p99_ms:.2f}",
        ]
        if self.scenario_counts:
            mix = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.scenario_counts.items())
            )
            lines.append(f"scenario mix: {mix}")
        return "\n".join(lines)


def run_load(
    server: ConcurrentEstimationService,
    scenarios: Sequence[Scenario],
    config: LoadConfig,
) -> LoadReport:
    """Drive one load run against a coalescing front and measure it."""
    by_name = {scenario.name: scenario for scenario in scenarios}
    if len(by_name) != len(scenarios):
        raise ValueError("scenario names must be unique")
    trace = build_trace(scenarios, config)
    total = len(trace)
    starts = np.zeros(total, dtype=np.float64)
    ends = np.zeros(total, dtype=np.float64)
    lags = np.zeros(total, dtype=np.float64)
    failed = np.zeros(total, dtype=bool)

    server.start()
    if config.mode == "closed":
        _run_closed(server, by_name, trace, starts, ends, failed, config)
    else:
        _run_open(server, by_name, trace, starts, ends, lags, failed)

    measured = np.asarray([not spec.warmup for spec in trace], dtype=bool)
    completed = measured & ~failed
    latencies_ms = (ends[completed] - starts[completed]) * 1000.0
    window_start = float(starts[measured].min()) if measured.any() else 0.0
    window_end = float(ends[measured].max()) if measured.any() else 0.0
    duration_s = max(window_end - window_start, 1e-9)
    n_measured = int(measured.sum())
    measured_plans = sum(
        len(spec.plan_indices) for spec in trace if not spec.warmup
    )
    scenario_counts: dict[str, int] = {}
    for spec in trace:
        if not spec.warmup:
            scenario_counts[spec.scenario] = scenario_counts.get(spec.scenario, 0) + 1

    coalescing = server.coalescing_stats()
    stats = server.service.stats.snapshot()
    return LoadReport(
        mode=config.mode,
        requests=n_measured,
        warmup=config.warmup,
        concurrency=config.concurrency,
        offered_qps=config.qps if config.mode == "open" else 0.0,
        errors=int(failed[measured].sum()),
        duration_s=duration_s,
        throughput_rps=n_measured / duration_s,
        plan_throughput_rps=measured_plans / duration_s,
        latency=LatencySummary.from_samples(latencies_ms),
        mean_requests_per_batch=coalescing.mean_requests_per_batch,
        mean_plans_per_batch=coalescing.mean_plans_per_batch,
        max_queue_depth=coalescing.max_queue_depth,
        queue_wait_p50_ms=stats.queue_wait_p50_ms,
        queue_wait_p95_ms=stats.queue_wait_p95_ms,
        generator_lag_p99_ms=float(np.percentile(lags[measured], 99.0)) * 1000.0,
        scenario_counts=scenario_counts,
    )


def _request_plans(
    by_name: Mapping[str, Scenario], spec: RequestSpec
) -> tuple[list[QueryPlan], tuple[str, ...] | None]:
    scenario = by_name[spec.scenario]
    return [scenario.plans[index] for index in spec.plan_indices], scenario.resources


def _run_closed(
    server: ConcurrentEstimationService,
    by_name: Mapping[str, Scenario],
    trace: tuple[RequestSpec, ...],
    starts: np.ndarray,
    ends: np.ndarray,
    failed: np.ndarray,
    config: LoadConfig,
) -> None:
    cursor_lock = threading.Lock()
    cursor = 0

    def worker() -> None:
        nonlocal cursor
        while True:
            with cursor_lock:
                index = cursor
                if index >= len(trace):
                    return
                cursor = index + 1
            spec = trace[index]
            plans, resources = _request_plans(by_name, spec)
            started = time.perf_counter()
            try:
                server.estimate_workload(plans, resources)
            except Exception as exc:
                failed[index] = True
                _LOGGER.warning("request %d failed: %s", index, exc)
            finished = time.perf_counter()
            starts[index] = started
            ends[index] = finished

    threads = [
        threading.Thread(target=worker, name=f"repro-loadgen-{i}", daemon=True)
        for i in range(config.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _run_open(
    server: ConcurrentEstimationService,
    by_name: Mapping[str, Scenario],
    trace: tuple[RequestSpec, ...],
    starts: np.ndarray,
    ends: np.ndarray,
    lags: np.ndarray,
    failed: np.ndarray,
) -> None:
    done = threading.Semaphore(0)
    run_start = time.perf_counter()
    futures: "list[Future[WorkloadEstimate]]" = []
    for spec in trace:
        due = run_start + spec.arrival_s
        delay = due - time.perf_counter()
        if delay > 0.0:
            time.sleep(delay)
        plans, resources = _request_plans(by_name, spec)
        starts[spec.index] = due
        lags[spec.index] = time.perf_counter() - due

        def record(
            future: "Future[WorkloadEstimate]", index: int = spec.index
        ) -> None:
            ends[index] = time.perf_counter()
            error = future.exception()
            if error is not None:
                failed[index] = True
                _LOGGER.warning("request %d failed: %s", index, error)
            done.release()

        future = server.submit(plans, resources)
        future.add_done_callback(record)
        futures.append(future)
    for _ in futures:
        done.acquire()
