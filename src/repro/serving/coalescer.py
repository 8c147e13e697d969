"""Micro-batch coalescing over a thread-safe :class:`EstimationService`.

The paper's deployment argument (Section 7.3) prices a *resident* model at
microseconds per prediction — but that number is only reachable when many
concurrent callers share one vectorised evaluation.  A single
``estimate_query`` call pays the full per-call overhead (grouping, matrix
build, one model selection per family and resource, one forest-bank kernel
call) for one plan; the batched ``estimate_workload`` path amortises that
overhead over hundreds of rows.

:class:`ConcurrentEstimationService` closes that gap for concurrent
traffic: callers submit requests into a thread-safe queue, a single worker
thread drains the queue into **micro-batches** (closed by whichever comes
first: ``max_batch_size`` coalesced plans, or ``max_wait_ms`` elapsed since
the batch opened), serves each batch with one
:meth:`~repro.api.EstimationService.estimate_workload` call, and slices the
batched :class:`~repro.core.estimator.WorkloadEstimate` back into
per-request futures.

Model evaluation is row-independent (per-row model selection, per-row tree
descent), and each plan's estimates are keyed in the plan's own pre-order
whatever batch it rides, so every per-operator value and every sum over a
plan's operators is **bit-identical** to a direct ``estimate_workload``
call.  ``max_wait_ms`` bounds the queue latency any request can pay on top
of its batch's service time.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.api.service import EstimationObserver, EstimationService
from repro.core.estimator import WorkloadEstimate
from repro.plan.plan import QueryPlan
from repro.robustness.degradation import DegradationReport
from repro.robustness.validation import PlanValidationError

__all__ = ["CoalescingStats", "ConcurrentEstimationService"]

_LOGGER = logging.getLogger("repro.serving.coalescer")

#: Sentinel enqueued by :meth:`ConcurrentEstimationService.close`.
_SHUTDOWN = object()


@dataclass(frozen=True)
class CoalescingStats:
    """Point-in-time coalescing counters of one serving front."""

    #: Micro-batches served so far.
    batches: int
    #: Requests demultiplexed out of those batches.
    requests: int
    #: Plans that rode those batches.
    plans: int
    #: Deepest request queue observed at submit time.
    max_queue_depth: int
    #: Worst batch service time (close -> demux complete) observed, in ms —
    #: the empirical bound on what any single micro-batch cost under load.
    max_service_ms: float = 0.0

    @property
    def mean_requests_per_batch(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def mean_plans_per_batch(self) -> float:
        return self.plans / self.batches if self.batches else 0.0


class _Request:
    """One pending ``estimate_workload`` call travelling through the queue."""

    __slots__ = ("plans", "resources", "future", "submitted_at")

    def __init__(
        self,
        plans: list[QueryPlan],
        resources: tuple[str, ...],
        submitted_at: float,
    ) -> None:
        self.plans = plans
        self.resources = resources
        self.future: Future[WorkloadEstimate] = Future()
        self.submitted_at = submitted_at


class ConcurrentEstimationService:
    """A concurrent serving front that coalesces calls into micro-batches.

    Wraps a (thread-safe) :class:`~repro.api.EstimationService`; any number
    of caller threads may :meth:`submit` or :meth:`estimate_workload`
    concurrently.  The wrapped service stays fully usable directly — e.g.
    :meth:`~repro.api.EstimationService.swap_artifact` hot-swaps the model
    under live coalesced traffic.

    The worker thread starts lazily on the first submit; :meth:`close`
    drains outstanding requests and stops it.  Usable as a context manager.
    """

    def __init__(
        self,
        service: EstimationService,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
    ) -> None:
        if not isinstance(service, EstimationService):
            raise TypeError(
                "ConcurrentEstimationService fronts an EstimationService; got "
                f"{type(service).__name__}"
            )
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0.0:
            raise ValueError("max_wait_ms must be >= 0")
        self.service = service
        #: Coalesced-plan budget that closes a micro-batch.
        self.max_batch_size = int(max_batch_size)
        #: Longest a batch stays open waiting for more requests.
        self.max_wait_ms = float(max_wait_ms)
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._lifecycle = threading.Lock()
        self._worker: threading.Thread | None = None
        self._closed = False
        self._stats_lock = threading.Lock()
        self._batches = 0
        self._requests = 0
        self._plans = 0
        self._max_queue_depth = 0
        self._max_service_ms = 0.0

    # -- lifecycle -------------------------------------------------------------------------------
    def start(self) -> "ConcurrentEstimationService":
        """Start the batching worker (idempotent; submit starts it lazily)."""
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("serving front is closed")
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._run, name="repro-serving-coalescer", daemon=True
                )
                self._worker.start()
        return self

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop the worker after serving everything already queued.

        Requests that race past the shutdown marker fail with
        :class:`RuntimeError` instead of hanging.  Idempotent.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
        if worker is not None:
            self._queue.put(_SHUTDOWN)
            worker.join(timeout)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, _Request):
                item.future.set_exception(
                    RuntimeError("serving front closed before the request ran")
                )

    def __enter__(self) -> "ConcurrentEstimationService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- serving ---------------------------------------------------------------------------------
    def submit(
        self,
        plans: Iterable[QueryPlan],
        resources: Sequence[str] | None = None,
    ) -> "Future[WorkloadEstimate]":
        """Enqueue one estimate request; returns a future of its estimate.

        The request is validated eagerly (non-empty, known resources) so
        errors surface in the calling thread, not inside the worker.
        """
        request_plans = list(plans)
        if not request_plans:
            raise ValueError("submit needs at least one plan")
        available = self.service.resources
        resolved = tuple(resources) if resources is not None else available
        for resource in resolved:
            if resource not in available:
                raise ValueError(
                    f"unknown resource {resource!r}; this service models {available}"
                )
        if self._worker is None:
            self.start()
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("serving front is closed")
            request = _Request(request_plans, resolved, time.perf_counter())
            self._queue.put(request)
        depth = self._queue.qsize()
        with self._stats_lock:
            if depth > self._max_queue_depth:
                self._max_queue_depth = depth
        return request.future

    def estimate_workload(
        self,
        plans: Iterable[QueryPlan],
        resources: Sequence[str] | None = None,
    ) -> WorkloadEstimate:
        """Blocking submit: coalesces with concurrent callers, then waits."""
        return self.submit(plans, resources).result()

    def estimate_query(self, plan: QueryPlan, resource: str = "cpu") -> float:
        """Query-level estimate for one plan through the coalesced path."""
        return self.estimate_workload([plan], (resource,)).query(0, resource)

    # -- observation -----------------------------------------------------------------------------
    def add_observer(self, observer: "EstimationObserver") -> None:
        """Register a post-serve observer on the wrapped service.

        Coalesced micro-batches run through the inner service's
        ``estimate_workload``, so an observer registered here sees every
        batch exactly once (as its combined plan list) — the adaptive
        loop's :class:`~repro.adaptive.observation.ObservationLog` parks
        each rider plan's prediction individually from that callback.
        """
        self.service.add_observer(observer)

    def remove_observer(self, observer: "EstimationObserver") -> None:
        """Unregister an observer added via :meth:`add_observer` (idempotent)."""
        self.service.remove_observer(observer)

    def coalescing_stats(self) -> CoalescingStats:
        """Current coalescing counters (consistent copy)."""
        with self._stats_lock:
            return CoalescingStats(
                batches=self._batches,
                requests=self._requests,
                plans=self._plans,
                max_queue_depth=self._max_queue_depth,
                max_service_ms=self._max_service_ms,
            )

    # -- worker ----------------------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            assert isinstance(item, _Request)
            batch = [item]
            n_plans = len(item.plans)
            deadline = time.perf_counter() + self.max_wait_ms / 1000.0
            saw_shutdown = False
            while n_plans < self.max_batch_size:
                remaining = deadline - time.perf_counter()
                if remaining <= 0.0:
                    break
                try:
                    nxt = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    saw_shutdown = True
                    break
                assert isinstance(nxt, _Request)
                batch.append(nxt)
                n_plans += len(nxt.plans)
            self._serve_batch(batch, n_plans)
            if saw_shutdown:
                return

    def _serve_batch(self, batch: list[_Request], n_plans: int) -> None:
        served_at = time.perf_counter()
        queue_waits_ms = [
            (served_at - request.submitted_at) * 1000.0 for request in batch
        ]
        all_plans = [plan for request in batch for plan in request.plans]
        union_resources: list[str] = []
        for request in batch:
            for resource in request.resources:
                if resource not in union_resources:
                    union_resources.append(resource)
        try:
            combined = self.service.estimate_workload(
                all_plans, tuple(union_resources)
            )
        except PlanValidationError:
            # Reject mode failed the whole batch; re-serve per request so only
            # the offending caller(s) see the rejection.
            _LOGGER.warning(
                "micro-batch of %d request(s) failed validation; re-serving "
                "requests individually",
                len(batch),
            )
            for request in batch:
                self._serve_single(request)
        except Exception as exc:
            # The error belongs to the callers: every future in the batch
            # carries it (nothing is swallowed), and the worker stays alive
            # for subsequent batches.
            _LOGGER.warning(
                "micro-batch of %d request(s) failed: %s", len(batch), exc
            )
            for request in batch:
                request.future.set_exception(exc)
        else:
            offset = 0
            for request in batch:
                count = len(request.plans)
                request.future.set_result(
                    _slice_estimate(combined, offset, count, request.resources)
                )
                offset += count
        service_ms = (time.perf_counter() - served_at) * 1000.0
        self.service.stats.record_batch(len(batch), n_plans, queue_waits_ms)
        with self._stats_lock:
            self._batches += 1
            self._requests += len(batch)
            self._plans += n_plans
            if service_ms > self._max_service_ms:
                self._max_service_ms = service_ms

    def _serve_single(self, request: _Request) -> None:
        try:
            estimate = self.service.estimate_workload(
                request.plans, request.resources
            )
        except Exception as exc:
            # Not swallowed: logged here, and the future hands the error to
            # the caller.
            _LOGGER.warning(
                "request of %d plan(s) failed: %s", len(request.plans), exc
            )
            request.future.set_exception(exc)
        else:
            request.future.set_result(estimate)


def _slice_estimate(
    combined: WorkloadEstimate,
    offset: int,
    n_plans: int,
    resources: tuple[str, ...],
) -> WorkloadEstimate:
    """The request's own ``WorkloadEstimate``, cut out of a coalesced batch.

    A plan's estimate dicts do not depend on its batch (values and key
    order alike), so the slice shares the batch's per-plan dicts.  The
    degradation report is re-indexed into the request's local plan
    numbering so it reads exactly like a direct call's report.
    """
    stop = offset + n_plans
    degradation: DegradationReport | None = None
    if combined.degradation is not None:
        entries = tuple(
            replace(entry, plan_index=entry.plan_index - offset)
            for entry in combined.degradation.entries
            if offset <= entry.plan_index < stop and entry.resource in resources
        )
        ood_plans = {
            plan_index - offset: score
            for plan_index, score in combined.degradation.ood_plans.items()
            if offset <= plan_index < stop
        }
        degradation = DegradationReport(entries=entries, ood_plans=ood_plans)
    return WorkloadEstimate(
        plans=combined.plans[offset:stop],
        resources=resources,
        operator_estimates={
            resource: combined.operator_estimates[resource][offset:stop]
            for resource in resources
        },
        degradation=degradation,
    )
