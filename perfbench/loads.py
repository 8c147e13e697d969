"""The three workloads: request streams, measured phases and output checks.

Each workload plans its seeded inputs (untimed), warms up through the path it
measures (timed as part of set-up), runs measured phases, then checks the
outputs and scores them against simulated actuals (untimed).  Untraced
phases call only public serving entry points.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from checks import check_estimate, check_futures, check_ratio_band, check_same, l1_error
from inputs import Actuals, derive_seed, plan_pool
from repro.api.service import EstimationService
from repro.plan.plan import QueryPlan
from repro.serving.coalescer import ConcurrentEstimationService
from spans import Tracer
from speed import Speedometer, scale_of

RESOURCES = ("cpu", "io")
#: A request still unanswered after this long has failed.
REQUEST_TIMEOUT_S = 30.0
#: The coalescing front's settings, as ``repro serve-bench`` uses them.
MAX_BATCH_SIZE = 96
MAX_WAIT_MS = 2.0
#: The service's default feature-cache size: a plan served again within
#: this many plans would be a cache hit.
CACHE_PLANS = 2048


@dataclass
class Phase:
    """Measured requests: latencies, plans completed and the wall time spent.

    Figures are at reference speed (``speed.py``) unless ``rescaled=False``
    asks for the wall clock's.
    """

    #: Per request: wall-clock latency, and the factor that rescales it to
    #: reference speed.
    latencies_s: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    plans_done: int = 0
    failed: int = 0
    #: The time the plans took, on the wall clock and at reference speed: a
    #: closed loop's summed request latency (one caller, one request at a
    #: time); an open loop's time from start to last answer.
    wall_s: float = 0.0
    reference_s: float = 0.0
    #: Open loop only: submit time minus due time, per request.
    lags_s: list[float] = field(default_factory=list)

    @classmethod
    def merge(cls, phases: "list[Phase]") -> "Phase":
        merged = cls()
        for phase in phases:
            merged.latencies_s += phase.latencies_s
            merged.scales += phase.scales
            merged.plans_done += phase.plans_done
            merged.failed += phase.failed
            merged.wall_s += phase.wall_s
            merged.reference_s += phase.reference_s
            merged.lags_s += phase.lags_s
        return merged

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    def _latencies(self, rescaled: bool) -> np.ndarray:
        samples = np.asarray(self.latencies_s, dtype=np.float64)
        return samples * np.asarray(self.scales, dtype=np.float64) if rescaled else samples

    def latency_ms(self, percentile: float, rescaled: bool = True) -> float:
        """A latency percentile; a failed request counts as timed out."""
        samples = np.minimum(self._latencies(rescaled), REQUEST_TIMEOUT_S)
        return float(np.percentile(samples, percentile)) * 1000.0

    def plans_per_s(self, rescaled: bool = True) -> float:
        return self.plans_done / (self.reference_s if rescaled else self.wall_s)

    def close_loop(self) -> None:
        """Closed loop: the plans took the finite latencies' sum."""
        latencies = self._latencies(rescaled=False)
        finite = np.isfinite(latencies)
        self.wall_s = float(latencies[finite].sum())
        self.reference_s = float(self._latencies(rescaled=True)[finite].sum())

    def median_scale(self) -> float:
        return float(np.median(self.scales)) if self.scales else 1.0


def _report_failure(kind: str, exc: BaseException) -> None:
    print(f"request failed ({kind}): {type(exc).__name__}: {exc}", file=sys.stderr)


def _warm_plans(seed: int) -> list[QueryPlan]:
    """Plans of every source, used only to warm up (never measured)."""
    return [
        plan
        for source in ("tpch", "tpcds", "real2")
        for plan in plan_pool(source, 32, derive_seed(seed, f"warm-{source}"))
    ]


class Workload:
    """Shared shape of the three workloads."""

    name = ""

    def __init__(self, service: EstimationService, seed: int) -> None:
        self.service = service
        self.seed = seed
        self.tpch_ids: set[int] = set()
        #: Plans served before measuring (warm-up), then every measured
        #: request's plans, in the order they were sent.
        self.history: list[QueryPlan] = []
        self.sequence: list[list[QueryPlan]] = []

    def warm_up(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, speed: Speedometer, tracer: Tracer | None = None) -> Phase:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Output checks over every phase run so far."""
        raise NotImplementedError

    def served(self) -> list[tuple[QueryPlan, float, float]]:
        """(plan, cpu estimate, io estimate) per distinct plan served."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload started (threads)."""

    def repeat_share(self) -> float:
        """Share of measured requests holding a plan among the last ``CACHE_PLANS`` served."""
        last: dict[int, int] = {}
        position = 0
        for plan in self.history:
            last[id(plan)] = position
            position += 1
        repeats = 0
        for plans in self.sequence:
            if any(position - last.get(id(plan), -CACHE_PLANS - 1) <= CACHE_PLANS
                   for plan in plans):
                repeats += 1
            for plan in plans:
                last[id(plan)] = position
                position += 1
        return repeats / len(self.sequence) if self.sequence else 0.0

    def degraded_operators(self) -> int:
        raise NotImplementedError

    def score(self) -> tuple[dict[str, float], list[str]]:
        """L1 errors over the distinct plans served, and the ratio-2 band on TPC-H."""
        rows = self.served()
        actuals = Actuals.execute([row[0] for row in rows])
        tpch = [row for row in rows if id(row[0]) in self.tpch_ids]
        scores: dict[str, float] = {}
        failures: list[str] = []
        for position, resource in ((1, "cpu"), (2, "io")):
            scores[f"{resource}_l1_error"] = l1_error(
                [row[position] for row in rows], [actuals.of(row[0], resource) for row in rows]
            )
            failures += check_ratio_band(
                [row[position] for row in tpch],
                [actuals.of(row[0], resource) for row in tpch],
                resource,
            )
        return scores, failures


class Interactive(Workload):
    """One closed-loop caller, single-plan requests, every plan a cache hit."""

    name = "interactive"
    POOL = {"tpch": 100, "tpcds": 100}
    #: Requests between two runs of the reference task, and how far either
    #: side of a request the reference times it is rescaled by are taken.
    SPEED_EVERY = 10
    SPEED_WINDOW_S = 0.5

    def __init__(self, service: EstimationService, seed: int) -> None:
        super().__init__(service, seed)
        self.pool: list[QueryPlan] = []
        for source, count in self.POOL.items():
            plans = plan_pool(source, count, derive_seed(seed, f"interactive-{source}"))
            if source == "tpch":
                self.tpch_ids.update(id(plan) for plan in plans)
            self.pool += plans
        self.rng = np.random.default_rng(derive_seed(seed, "interactive-order"))
        self.order: list[int] = []
        self.seen: set[int] = set()
        self.requests: list[tuple[int, Any]] = []
        self._warm = _warm_plans(seed)

    def warm_up(self) -> None:
        self.service.estimate_workload(self._warm, RESOURCES)
        # Cache fill: every pool plan is now a cached hit.
        self.service.estimate_workload(self.pool, RESOURCES)
        self.history = self._warm + self.pool

    def measure(self, seconds: float, speed: Speedometer, tracer: Tracer | None = None) -> Phase:
        phase = Phase()
        service = self.service
        starts: list[float] = []
        speed.sample()
        # Rounds serve every pool plan once, in a seeded order.  Stop on the
        # first request after ``seconds`` once a whole round has been served,
        # so the distinct plans served are the pool.
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(self.seen) < len(self.pool):
            if starts and len(starts) % self.SPEED_EVERY == 0:
                speed.sample()
            if not self.order:
                self.order = self.rng.permutation(len(self.pool)).tolist()
            index = self.order.pop()
            plan = self.pool[index]
            self.seen.add(index)
            if tracer is not None:
                tracer.set_request(len(self.sequence))
            self.sequence.append([plan])
            started = time.perf_counter()
            starts.append(started)
            try:
                estimate = service.estimate_workload([plan], RESOURCES)
            except Exception as exc:
                _report_failure(self.name, exc)
                phase.failed += 1
                phase.latencies_s.append(math.inf)
                continue
            phase.latencies_s.append(time.perf_counter() - started)
            phase.plans_done += 1
            self.requests.append((index, estimate))
        if tracer is not None:
            tracer.set_request(None)
        speed.sample()
        phase.scales = speed.scales_at(starts, self.SPEED_WINDOW_S)
        phase.close_loop()
        return phase

    def check(self) -> list[str]:
        reference = self.service.estimator.estimate_workload(self.pool, RESOURCES)
        failures: list[str] = []
        for index, estimate in self.requests:
            failures += check_estimate(estimate, RESOURCES)
            failures += [
                f"interactive vs ResourceEstimator, plan {index}: {message}"
                for message in check_same(estimate, 0, reference, index, RESOURCES)
            ]
        return failures

    def served(self) -> list[tuple[QueryPlan, float, float]]:
        first: dict[int, Any] = {}
        for index, estimate in self.requests:
            first.setdefault(index, estimate)
        return [
            (self.pool[index], est.query(0, "cpu"), est.query(0, "io"))
            for index, est in sorted(first.items())
        ]

    def degraded_operators(self) -> int:
        return sum(_degraded(estimate) for _, estimate in self.requests)


def _degraded(estimate: Any) -> int:
    report = getattr(estimate, "degradation", None)
    return int(getattr(report, "count", 0)) if report is not None else 0


class Bulk(Workload):
    """One closed-loop caller, 96-plan requests through the offline batch API."""

    name = "bulk"
    #: Plans of each source in every 96-plan request.  Every request has the
    #: same make-up, so request latency varies with the plans, not the mix.
    REQUEST = {"tpch": 56, "tpcds": 32, "real2": 8}
    REQUEST_PLANS = sum(REQUEST.values())
    #: Requests per pass over the pool: 64 x 96 = 6144 plans, three times the
    #: service's 2048-plan cache.  Passes repeat one fixed order, so a plan
    #: recurs only after the whole pool has been served.
    N_REQUESTS = 64
    #: The reference task runs after every request (each takes ~80 ms).
    SPEED_WINDOW_S = 0.5

    def __init__(self, service: EstimationService, seed: int) -> None:
        super().__init__(service, seed)
        rng = np.random.default_rng(derive_seed(seed, "bulk-order"))
        sources = {}
        for source, per_request in self.REQUEST.items():
            plans = plan_pool(
                source, per_request * self.N_REQUESTS, derive_seed(seed, f"bulk-{source}")
            )
            if source == "tpch":
                self.tpch_ids.update(id(plan) for plan in plans)
            sources[source] = [plans[int(i)] for i in rng.permutation(len(plans))]
        self.pool = []
        for slot in range(self.N_REQUESTS):
            request = [
                plan
                for source, per_request in self.REQUEST.items()
                for plan in sources[source][slot * per_request:(slot + 1) * per_request]
            ]
            self.pool += [request[int(i)] for i in rng.permutation(len(request))]
        self.cursor = 0
        #: First-pass estimate of each request slot, and later passes' estimates.
        self.first: dict[int, Any] = {}
        self.repeats: list[tuple[int, Any]] = []
        self._warm = _warm_plans(seed)

    def _request(self, slot: int) -> list[QueryPlan]:
        start = slot * self.REQUEST_PLANS
        return self.pool[start:start + self.REQUEST_PLANS]

    def warm_up(self) -> None:
        self.service.estimator.estimate_workload(self._warm, RESOURCES)
        self.history = list(self._warm)

    def measure(self, seconds: float, speed: Speedometer, tracer: Tracer | None = None) -> Phase:
        phase = Phase()
        estimator = self.service.estimator
        starts: list[float] = []
        speed.sample()
        start = time.perf_counter()
        # Stop on the first request boundary after ``seconds`` once the whole
        # pool has been served, so the distinct plans served are the pool.
        while time.perf_counter() - start < seconds or len(self.first) < self.N_REQUESTS:
            if starts:
                speed.sample()
            slot = self.cursor % self.N_REQUESTS
            self.cursor += 1
            plans = self._request(slot)
            if tracer is not None:
                tracer.set_request(len(self.sequence))
            self.sequence.append(plans)
            started = time.perf_counter()
            starts.append(started)
            try:
                estimate = estimator.estimate_workload(plans, RESOURCES)
            except Exception as exc:
                _report_failure(self.name, exc)
                phase.failed += 1
                phase.latencies_s.append(math.inf)
                continue
            phase.latencies_s.append(time.perf_counter() - started)
            phase.plans_done += len(plans)
            if slot in self.first:
                self.repeats.append((slot, estimate))
            else:
                self.first[slot] = estimate
        if tracer is not None:
            tracer.set_request(None)
        speed.sample()
        phase.scales = speed.scales_at(starts, self.SPEED_WINDOW_S)
        phase.close_loop()
        return phase

    #: First-pass requests re-served through ``EstimationService`` for the
    #: independent-path check (each costs about two bulk requests).
    SERVICE_CHECKS = 8

    def check(self) -> list[str]:
        failures: list[str] = []
        for estimate in self.first.values():
            failures += check_estimate(estimate, RESOURCES)
        for slot, estimate in self.repeats:
            first = self.first[slot]
            for index in range(estimate.n_plans):
                failures += [
                    f"bulk request {slot} served twice, plan {index}: {message}"
                    for message in check_same(estimate, index, first, index, RESOURCES)
                ]
        service = EstimationService(estimator=self.service.estimator)
        rng = np.random.default_rng(derive_seed(self.seed, "bulk-check"))
        slots = sorted(self.first)
        for slot in rng.choice(slots, size=min(self.SERVICE_CHECKS, len(slots)), replace=False):
            reference = service.estimate_workload(self._request(int(slot)), RESOURCES)
            estimate = self.first[int(slot)]
            for index in range(estimate.n_plans):
                failures += [
                    f"bulk vs EstimationService, request {slot} plan {index}: {message}"
                    for message in check_same(estimate, index, reference, index, RESOURCES)
                ]
        return failures

    def served(self) -> list[tuple[QueryPlan, float, float]]:
        return [
            (plan, estimate.query(index, "cpu"), estimate.query(index, "io"))
            for _, estimate in sorted(self.first.items())
            for index, plan in enumerate(estimate.plans)
        ]

    def degraded_operators(self) -> int:
        return sum(_degraded(e) for e in self.first.values()) + sum(
            _degraded(e) for _, e in self.repeats
        )


class Coalesced(Workload):
    """An open-loop Poisson stream of 1/4/8-plan requests into the coalescer."""

    name = "coalesced"
    #: Offered load, requests per reference-speed second (the coalescer is
    #: about a third busy at the commit that introduced the benchmark).
    RATE = 25.0
    #: One round of the stream: (plans per request, source) x count, in the
    #: shape of ``repro serve-bench --scenarios mixed`` (45/15/30/10 %).
    ROUND = ((1, "tpch", 9), (8, "tpch", 3), (1, "tpcds", 6), (4, "tpcds", 2))
    #: ``RATE`` is offered per second at reference speed: the generator
    #: runs the reference task every ``SPEED_GAP_S`` (when the next arrival
    #: is at least ``SPEED_SLACK_S`` away), busy front or not, so the
    #: estimate never goes stale, and stretches the gap to each next
    #: arrival by the host's slowness over its last ``SPEED_RECENT`` runs,
    #: so the front is as busy on a slow host as on a fast one.  A request's
    #: latency is rescaled by the runs within ``SPEED_WINDOW_S`` of its due
    #: time.
    SPEED_GAP_S = 0.1
    SPEED_SLACK_S = 0.003
    SPEED_RECENT = 8
    SPEED_WINDOW_S = 0.5

    def __init__(self, service: EstimationService, seed: int) -> None:
        super().__init__(service, seed)
        self.rng = np.random.default_rng(derive_seed(seed, "coalesced-stream"))
        self.phases = 0
        #: Per measured request, numbered across phases: plans, future, and
        #: the times it was submitted and resolved (``perf_counter`` seconds).
        self.requests: list[tuple[list[QueryPlan], Future]] = []
        self.submitted: list[float] = []
        self.resolved: list[float] = []
        #: Growth of the service's ``plans_served`` over the measured phases.
        self.plans_served = 0
        self.front: ConcurrentEstimationService | None = None
        self._warm = _warm_plans(seed)

    def _round_kinds(self) -> list[tuple[int, str]]:
        kinds = [(size, source) for size, source, count in self.ROUND for _ in range(count)]
        return [kinds[int(i)] for i in self.rng.permutation(len(kinds))]

    def warm_up(self) -> None:
        self.front = ConcurrentEstimationService(
            self.service, max_batch_size=MAX_BATCH_SIZE, max_wait_ms=MAX_WAIT_MS
        ).start()
        futures = []
        cursor = 0
        for size in (1, 4, 8) * 8:
            plans = self._warm[cursor:cursor + size]
            futures.append(self.front.submit(plans, RESOURCES))
            self.history += plans
            cursor = (cursor + size) % (len(self._warm) - 8)
        for future in futures:
            future.result(timeout=REQUEST_TIMEOUT_S)

    def plan_stream(self, seconds: float) -> tuple[np.ndarray, list[list[QueryPlan]]]:
        """Due times (reference-speed seconds) and plans of one phase: whole rounds, fresh plans only."""
        round_size = sum(count for _, _, count in self.ROUND)
        rounds = max(1, math.ceil(self.RATE * seconds / round_size))
        kinds = [kind for _ in range(rounds) for kind in self._round_kinds()]
        needed: dict[str, int] = {}
        for size, source in kinds:
            needed[source] = needed.get(source, 0) + size
        self.phases += 1
        pools = {
            source: iter(plan_pool(source, count, derive_seed(
                self.seed, f"coalesced-{source}-{self.phases}")))
            for source, count in needed.items()
        }
        requests = []
        for size, source in kinds:
            plans = [next(pools[source]) for _ in range(size)]
            if source == "tpch":
                self.tpch_ids.update(id(plan) for plan in plans)
            requests.append(plans)
        # A Poisson process conditioned on len(kinds) arrivals in the span:
        # the offered rate and the plans offered are exact for every seed.
        span = len(kinds) / self.RATE
        due = np.sort(self.rng.uniform(0.0, span, size=len(kinds)))
        return due, requests

    def measure(self, seconds: float, speed: Speedometer, tracer: Tracer | None = None) -> Phase:
        assert self.front is not None
        offsets, stream = self.plan_stream(seconds)
        first = len(self.requests)
        if tracer is not None:
            tracer.plan_requests = {
                id(plan): first + offset
                for offset, plans in enumerate(stream)
                for plan in plans
            }
        resolved = self.resolved
        resolved += [math.inf] * len(stream)
        self.submitted += [0.0] * len(stream)

        def on_done(future: Future, number: int) -> None:
            resolved[number] = time.perf_counter()

        phase = Phase()
        front = self.front
        before = self.service.stats.snapshot().plans_served
        futures: list[Future] = []
        due = np.empty(len(stream))
        speed.sample(self.SPEED_RECENT)
        last_sample = time.perf_counter()
        start = previous_due = time.perf_counter()
        previous_offset = 0.0
        for offset, plans in enumerate(stream):
            slowness = 1.0 / scale_of(speed.durations[-self.SPEED_RECENT:])
            due[offset] = previous_due + (offsets[offset] - previous_offset) * slowness
            previous_due, previous_offset = due[offset], offsets[offset]
            now = time.perf_counter()
            if now - last_sample >= self.SPEED_GAP_S and due[offset] - now >= self.SPEED_SLACK_S:
                speed.sample()
                last_sample = now
            delay = due[offset] - time.perf_counter()
            if delay > 0.0:
                time.sleep(delay)
            submitted = time.perf_counter()
            self.submitted[first + offset] = submitted
            phase.lags_s.append(submitted - due[offset])
            future = front.submit(plans, RESOURCES)
            future.add_done_callback(lambda f, n=first + offset: on_done(f, n))
            futures.append(future)
        deadline = time.perf_counter() + REQUEST_TIMEOUT_S
        for offset, future in enumerate(futures):
            try:
                future.result(timeout=max(deadline - time.perf_counter(), 0.0))
            except Exception as exc:  # a raised request or a timeout: failed
                _report_failure(self.name, exc)
                phase.failed += 1
                resolved[first + offset] = math.inf
        speed.sample(self.SPEED_RECENT)
        self.plans_served += self.service.stats.snapshot().plans_served - before
        ends = np.asarray(resolved[first:])
        finite = np.isfinite(ends)
        phase.latencies_s = (ends - due).tolist()
        phase.scales = speed.scales_at(due, self.SPEED_WINDOW_S)
        phase.plans_done = sum(len(plans) for plans, ok in zip(stream, finite) if ok)
        if finite.any():
            # Each answer's time at reference speed: its due time on the
            # reference clock plus its rescaled latency.
            answered = offsets + (ends - due) * np.asarray(phase.scales)
            phase.wall_s = float(ends[finite].max()) - start
            phase.reference_s = float(answered[finite].max())
        self.requests += list(zip(stream, futures))
        self.sequence += stream
        if tracer is not None:
            tracer.plan_requests = {}
        return phase

    def close(self) -> None:
        if self.front is not None:
            self.front.close()

    #: Requests re-served directly through ``EstimationService`` for the
    #: independent-path check (each direct call costs about 10 ms).
    DIRECT_CHECKS = 80

    def check(self) -> list[str]:
        failures = check_futures(
            [future for _, future in self.requests],
            sum(len(plans) for plans, _ in self.requests),
            self.plans_served,
        )
        rng = np.random.default_rng(derive_seed(self.seed, "coalesced-check"))
        direct_checks = set(rng.choice(
            len(self.requests), size=min(self.DIRECT_CHECKS, len(self.requests)), replace=False
        ).tolist())
        for number, (plans, future) in enumerate(self.requests):
            if not future.done() or future.exception() is not None:
                continue
            estimate = future.result()
            failures += check_estimate(estimate, RESOURCES)
            if number not in direct_checks:
                continue
            direct = self.service.estimate_workload(plans, RESOURCES)
            for index in range(len(plans)):
                failures += [
                    f"coalesced vs direct, request {number} plan {index}: {message}"
                    for message in check_same(
                        estimate, index, direct, index, RESOURCES, query_totals=True
                    )
                ]
        return failures

    def served(self) -> list[tuple[QueryPlan, float, float]]:
        rows = []
        for plans, future in self.requests:
            if not future.done() or future.exception() is not None:
                continue
            estimate = future.result()
            rows += [
                (plan, estimate.query(index, "cpu"), estimate.query(index, "io"))
                for index, plan in enumerate(plans)
            ]
        return rows

    def degraded_operators(self) -> int:
        return sum(
            _degraded(future.result())
            for _, future in self.requests
            if future.done() and future.exception() is None
        )


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Interactive, Bulk, Coalesced)
}
