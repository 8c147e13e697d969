"""The serving session layer: load a model once, estimate many workloads.

The paper's Section 7.3 deployment argument — trained models are tiny and
prediction overhead is negligible — assumes a resident model that serves
many requests.  :class:`EstimationService` is that resident session: it
loads a persisted :class:`~repro.core.estimator.ResourceEstimator` once
(:meth:`EstimationService.from_artifact`, with bounded retry for transient
IO) and then answers any number of ``estimate_workload`` calls without
retraining or reloading.

The service adds one serving-side optimisation over the bare estimator:
**per-plan feature-row caching**.  Feature extraction is the only
per-operator Python-loop work left on the batched estimation path, and
serving scenarios (admission control, repeated what-if costing, scheduling)
ask about the same plans repeatedly — so each plan's extraction result, its
``{node_id: OperatorFeatures}`` mapping, is memoised per plan object in a
bounded LRU.  Cached or not, the service's numbers are bit-identical to
``estimator.estimate_workload``: both paths feed the same mappings through
:meth:`~repro.core.estimator.ResourceEstimator.estimate_extracted_workload`.

Serving is guardrailed (:mod:`repro.robustness`): inputs are validated
against the training-feature envelopes (``on_invalid`` selects whether
non-finite features reject the request or degrade down the fallback
ladder), every estimate carries a
:class:`~repro.robustness.degradation.DegradationReport`, and
:meth:`EstimationService.swap_artifact` hot-swaps the live model only after
the candidate passes canary predictions — rolling back to the incumbent
otherwise.

The session is **thread-safe**: the feature cache, the stats counters and
the estimator/validator pair are guarded by locks, so any number of caller
threads (or the micro-batch coalescer in :mod:`repro.serving`) can share
one service.  A concurrent :meth:`swap_artifact` is atomic with respect to
readers — every ``estimate_workload`` call runs entirely against one
(estimator, validator) pair, never a half-swapped mix.

The session is also **observable**: :meth:`EstimationService.add_observer`
registers a callback that sees every served ``(plans, estimate)`` pair
after the fact.  The adaptive serving loop (:mod:`repro.adaptive`) attaches
its :class:`~repro.adaptive.observation.ObservationLog` here, joining the
predictions with simulated-actual execution feedback to drive drift
detection and background refits.  Observers run outside every service
lock and never fail the serving path — a raising observer is logged and
dropped from the estimate's critical path, nothing more.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

import logging
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from repro.core.estimator import ResourceEstimator, WorkloadEstimate
from repro.core.serialization import ModelSizeReport
from repro.features.extractor import OperatorFeatures
from repro.plan.plan import QueryPlan
from repro.robustness.lifecycle import (
    ArtifactSwapError,
    load_estimator_with_retry,
    run_canary_checks,
)
from repro.robustness.validation import PlanValidator, ValidationReport

__all__ = ["EstimationObserver", "EstimationService", "ServiceStats", "StatsSnapshot"]

_LOGGER = logging.getLogger("repro.api.service")

#: Post-serve callback signature: ``observer(plans, estimate)`` is invoked
#: after every successful ``estimate_workload`` call, outside all locks.
EstimationObserver = Callable[[list[QueryPlan], WorkloadEstimate], None]

#: Sliding-window size of the queue-wait reservoir (newest samples win).
_QUEUE_WAIT_WINDOW = 4096


@dataclass(frozen=True)
class StatsSnapshot:
    """A consistent point-in-time copy of one session's :class:`ServiceStats`.

    Taken under the stats lock, so the counters are mutually consistent even
    while other threads keep serving.
    """

    workloads_served: int
    plans_served: int
    cache_hits: int
    cache_misses: int
    degraded_operators: int
    ood_plans_flagged: int
    swaps: int
    failed_swaps: int
    batches_served: int
    plans_coalesced: int
    hit_rate: float
    queue_wait_p50_ms: float
    queue_wait_p95_ms: float
    #: Queue-wait samples currently in the sliding window.
    queue_wait_samples: int


@dataclass
class ServiceStats:
    """Counters describing one service session.

    All fields stay directly readable (and, in tests, writable); concurrent
    writers must hold :attr:`lock` — :class:`EstimationService` and the
    micro-batch coalescer do.  :meth:`snapshot` returns a consistent copy
    taken under the lock.
    """

    workloads_served: int = 0
    plans_served: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Operator estimates served below the MODEL tier (degradation ladder).
    degraded_operators: int = 0
    #: Plans flagged outside the training envelopes.
    ood_plans_flagged: int = 0
    #: Successful / rejected artifact hot-swaps.
    swaps: int = 0
    failed_swaps: int = 0
    #: Micro-batches served by a coalescing front (``repro.serving``).
    batches_served: int = 0
    #: Plans that rode a coalesced micro-batch.
    plans_coalesced: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._queue_waits_ms: deque[float] = deque(maxlen=_QUEUE_WAIT_WINDOW)

    @property
    def lock(self) -> threading.Lock:
        """The lock serialising every mutation of this stats object."""
        return self._lock

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def record_batch(
        self, n_requests: int, n_plans: int, queue_waits_ms: Sequence[float]
    ) -> None:
        """Account one served micro-batch (coalescer bookkeeping)."""
        with self._lock:
            self.batches_served += 1
            self.plans_coalesced += n_plans
            self._queue_waits_ms.extend(float(wait) for wait in queue_waits_ms)

    def _queue_wait_percentile(self, percentile: float) -> float:
        if not self._queue_waits_ms:
            return 0.0
        return float(
            np.percentile(
                np.asarray(self._queue_waits_ms, dtype=np.float64), percentile
            )
        )

    @property
    def queue_wait_p50_ms(self) -> float:
        """Median queue wait over the sliding sample window (ms)."""
        with self._lock:
            return self._queue_wait_percentile(50.0)

    @property
    def queue_wait_p95_ms(self) -> float:
        """95th-percentile queue wait over the sliding sample window (ms)."""
        with self._lock:
            return self._queue_wait_percentile(95.0)

    def snapshot(self) -> StatsSnapshot:
        """A mutually consistent copy of every counter, taken under the lock."""
        with self._lock:
            counters = {
                f.name: getattr(self, f.name) for f in fields(ServiceStats)
            }
            hits, misses = counters["cache_hits"], counters["cache_misses"]
            return StatsSnapshot(
                hit_rate=hits / (hits + misses) if hits + misses else 0.0,
                queue_wait_p50_ms=self._queue_wait_percentile(50.0),
                queue_wait_p95_ms=self._queue_wait_percentile(95.0),
                queue_wait_samples=len(self._queue_waits_ms),
                **counters,
            )


@dataclass
class EstimationService:
    """A long-lived serving session over one trained estimator."""

    estimator: ResourceEstimator
    #: Maximum number of plans whose extracted feature rows stay cached.
    cache_size: int = 2048
    stats: ServiceStats = field(default_factory=ServiceStats)
    #: Run the degradation-ladder guardrails on every estimate.
    guardrails: bool = True
    #: What to do when a plan carries non-finite feature values: ``"flag"``
    #: degrades the affected operators down the fallback ladder, ``"reject"``
    #: raises :class:`~repro.robustness.validation.PlanValidationError` before
    #: any estimation happens.
    on_invalid: Literal["flag", "reject"] = "flag"
    #: Out-of-distribution score above which plans are flagged in the
    #: degradation report (training-range units); ``None`` disables scoring.
    ood_threshold: float | None = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.estimator, ResourceEstimator):
            raise TypeError(
                "EstimationService serves ResourceEstimator artifacts; got "
                f"{type(self.estimator).__name__}"
            )
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.on_invalid not in ("flag", "reject"):
            raise ValueError(
                f"on_invalid must be 'flag' or 'reject', got {self.on_invalid!r}"
            )
        # id(plan) -> (plan, features); the plan reference keeps the id stable.
        self._feature_cache: OrderedDict[
            int, tuple[QueryPlan, dict[int, OperatorFeatures]]
        ] = OrderedDict()
        # Guards the feature cache and the (estimator, validator) pair; RLock
        # so promote -> _build_validator can nest.  Never held while stats
        # counters are updated (no nested lock orders to deadlock on).
        self._lock = threading.RLock()
        self._validator = self._build_validator()
        # Post-serve observers (adaptive loop hooks); guarded by _lock for
        # registration, iterated over a snapshot so callbacks run lock-free.
        self._observers: list[EstimationObserver] = []

    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        cache_size: int = 2048,
        retries: int = 3,
        backoff: float = 0.05,
        reader: "Callable[[Path], bytes] | None" = None,
        mmap: bool = False,
    ) -> "EstimationService":
        """Load a persisted estimator once and wrap it in a serving session.

        Transient IO errors are retried up to ``retries`` times with
        exponential backoff (``backoff * 2**attempt`` seconds); decode
        errors fail immediately.  ``reader`` overrides the file reader
        (used by fault-injection tests).  With ``mmap=True`` a version-3
        artifact's inference arrays are memory-mapped zero-copy instead of
        decoded, shrinking artifact-to-first-estimate cold start.
        """
        estimator = load_estimator_with_retry(
            path, retries=retries, backoff=backoff, reader=reader, mmap=mmap
        )
        return cls(estimator=estimator, cache_size=cache_size)

    # -- serving --------------------------------------------------------------------------------
    def estimate_workload(
        self,
        plans: Iterable[QueryPlan],
        resources: Sequence[str] | None = None,
    ) -> WorkloadEstimate:
        """Batch-estimate a workload, reusing cached feature rows per plan.

        Same grouping, matrices and model evaluation as
        :meth:`ResourceEstimator.estimate_workload`, so the results are
        identical — the service only skips re-extracting features for plans
        it has served before.  With guardrails on, the returned estimate
        carries a degradation report; in ``on_invalid="reject"`` mode a
        workload with non-finite features raises
        :class:`~repro.robustness.validation.PlanValidationError` instead of
        being estimated.
        """
        plans = list(plans)
        # One consistent (estimator, validator) pair for the whole call, so a
        # concurrent swap_artifact can never mix models mid-estimate.
        with self._lock:
            estimator = self.estimator
            validator = self._validator
        extracted = [self._plan_features(plan, estimator) for plan in plans]
        if self.guardrails and self.on_invalid == "reject":
            validator.require_valid(extracted)
        estimate = estimator.estimate_extracted_workload(
            plans,
            extracted,
            resources,
            guardrails=self.guardrails,
            ood_threshold=self.ood_threshold if self.guardrails else None,
        )
        report = estimate.degradation
        with self.stats.lock:
            self.stats.workloads_served += 1
            self.stats.plans_served += len(plans)
            if report is not None and not report.clean:
                self.stats.degraded_operators += report.count
                self.stats.ood_plans_flagged += len(report.ood_plans)
        self._notify_observers(plans, estimate)
        return estimate

    def estimate_query(self, plan: QueryPlan, resource: str = "cpu") -> float:
        """Query-level estimate for one plan (cached like any other)."""
        return self.estimate_workload([plan], (resource,)).query(0, resource)

    def validate_workload(self, plans: Iterable[QueryPlan]) -> ValidationReport:
        """Pre-flight validation only: no estimation, no stats updates.

        Features are read through (and fill) the feature cache, but the
        lookups are not counted as cache hits or misses.
        """
        with self._lock:
            estimator = self.estimator
            validator = self._validator
        return validator.validate_workload(
            [self._cached_features(plan, estimator)[0] for plan in plans]
        )

    # -- artifact lifecycle ----------------------------------------------------------------------
    def swap_artifact(
        self,
        path: str | Path,
        retries: int = 3,
        backoff: float = 0.05,
        reader: "Callable[[Path], bytes] | None" = None,
        canary_margin: float = 1e9,
    ) -> "ResourceEstimator":
        """Validate a candidate artifact and atomically promote it.

        The candidate is loaded (with the same bounded retry as
        :meth:`from_artifact`), checked for compatibility with the live
        session (same feature mode, covers every currently served resource)
        and probed with canary predictions
        (:func:`~repro.robustness.lifecycle.run_canary_checks`).  Only after
        every check passes is the live estimator replaced — a single
        reference assignment, so concurrent readers see either the old or
        the new model, never a mix.  Any failure raises
        :class:`~repro.robustness.lifecycle.ArtifactSwapError` and leaves
        the incumbent serving (rollback is keeping the reference).

        Returns the estimator that was replaced.
        """
        with self._lock:
            incumbent = self.estimator
        try:
            candidate = load_estimator_with_retry(
                path, retries=retries, backoff=backoff, reader=reader
            )
        except (OSError, ValueError) as exc:
            self._count_failed_swap()
            _LOGGER.warning("artifact swap rejected (load failed): %s", exc)
            raise ArtifactSwapError(
                f"candidate artifact {path} failed to load: {exc}"
            ) from exc
        if candidate.feature_mode is not incumbent.feature_mode:
            self._count_failed_swap()
            raise ArtifactSwapError(
                f"candidate feature mode {candidate.feature_mode.value!r} does not "
                f"match the live session ({incumbent.feature_mode.value!r})"
            )
        missing = [r for r in incumbent.resources if r not in candidate.resources]
        if missing:
            self._count_failed_swap()
            raise ArtifactSwapError(
                f"candidate artifact does not model resource(s) {missing} served "
                "by the live session"
            )
        report = run_canary_checks(candidate, margin=canary_margin)
        if not report.passed:
            self._count_failed_swap()
            details = "; ".join(
                f"{f.family.value if f.family else 'global'}/{f.resource}: {f.reason}"
                for f in report.failures[:3]
            )
            _LOGGER.warning("artifact swap rejected (canary failed): %s", details)
            raise ArtifactSwapError(
                f"candidate artifact {path} failed canary checks: {details}"
            )
        # Promote atomically: estimator, validator and cache flip together
        # under the lock, so in-flight estimates (which captured the previous
        # pair up front) finish on the old model and new calls see only the
        # new one — never a mix.
        with self._lock:
            previous = self.estimator
            self.estimator = candidate
            self._validator = self._build_validator()
            self._feature_cache.clear()
        with self.stats.lock:
            self.stats.swaps += 1
        return previous

    # -- observation hook ------------------------------------------------------------------------
    def add_observer(self, observer: EstimationObserver) -> None:
        """Register a post-serve callback (the adaptive-loop tap).

        The callback receives every ``(plans, estimate)`` pair this session
        serves, after stats accounting and outside all service locks.  A
        raising observer is logged and skipped for that estimate; it is
        never allowed to fail the serving path.
        """
        with self._lock:
            if observer not in self._observers:
                self._observers.append(observer)

    def remove_observer(self, observer: EstimationObserver) -> None:
        """Unregister a callback added by :meth:`add_observer` (idempotent)."""
        with self._lock:
            if observer in self._observers:
                self._observers.remove(observer)

    def _notify_observers(
        self, plans: list[QueryPlan], estimate: WorkloadEstimate
    ) -> None:
        with self._lock:
            observers = tuple(self._observers)
        for observer in observers:
            try:
                observer(plans, estimate)
            except Exception as exc:
                _LOGGER.warning(
                    "estimation observer %r failed (estimate already served): %s",
                    observer,
                    exc,
                )

    # -- introspection ---------------------------------------------------------------------------
    @property
    def resources(self) -> tuple[str, ...]:
        return self.estimator.resources

    @property
    def validator(self) -> PlanValidator:
        return self._validator

    def model_size_report(self) -> ModelSizeReport:
        """Compact-encoding size summary of the served model collection."""
        return ModelSizeReport.for_estimator(self.estimator)

    def clear_cache(self) -> None:
        with self._lock:
            self._feature_cache.clear()

    # -- internals ---------------------------------------------------------------------------------
    def _count_failed_swap(self) -> None:
        with self.stats.lock:
            self.stats.failed_swaps += 1

    def _build_validator(self) -> PlanValidator:
        return PlanValidator.for_estimator(
            self.estimator,
            ood_threshold=self.ood_threshold if self.ood_threshold is not None else 1.0,
        )

    def _plan_features(
        self, plan: QueryPlan, estimator: ResourceEstimator | None = None
    ) -> dict[int, OperatorFeatures]:
        """A plan's features through the cache, counted as a hit or a miss."""
        if estimator is None:
            with self._lock:
                estimator = self.estimator
        features, hit = self._cached_features(plan, estimator)
        with self.stats.lock:
            if hit:
                self.stats.cache_hits += 1
            else:
                self.stats.cache_misses += 1
        return features

    def _cached_features(
        self, plan: QueryPlan, estimator: ResourceEstimator
    ) -> tuple[dict[int, OperatorFeatures], bool]:
        """A plan's features and whether the cache had them (no stats)."""
        key = id(plan)
        with self._lock:
            cached = self._feature_cache.get(key)
            if cached is not None:
                if cached[0] is plan:
                    self._feature_cache.move_to_end(key)
                    return cached[1], True
                # id() was recycled for a new plan object: the cached entry
                # is stale and can never hit again — drop it before
                # re-populating.
                del self._feature_cache[key]
        # Extraction runs outside the lock: concurrent misses on the same plan
        # may extract twice, but the results are identical and last-write-wins
        # keeps the cache coherent.
        features = estimator.extract_plan_features(plan)
        if self.cache_size > 0:
            with self._lock:
                self._feature_cache[key] = (plan, features)
                self._feature_cache.move_to_end(key)
                while len(self._feature_cache) > self.cache_size:
                    self._feature_cache.popitem(last=False)
        return features, False
