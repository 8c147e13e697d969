"""Span recorder for the traced run.

The recorder wraps public entry points of the program's layers in place
(class attributes are swapped for timing wrappers and restored afterwards),
so the program itself carries no instrumentation.  Each span records its
name, start, end, parent span, request id and a work count; spans are kept
in memory and written out when the run ends.

An entry point that no longer exists is reported as an absent span instead
of failing the run, so the benchmark keeps working when a later change
renames or removes one of the wrapped methods.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

Counter = Callable[[Any, tuple, dict, Any], "tuple[float, float]"]


def _no_count(obj: Any, args: tuple, kwargs: dict, result: Any) -> tuple[float, float]:
    return 0.0, 0.0


def _rows(matrix: Any) -> int:
    shape = getattr(matrix, "shape", None)
    if not shape:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


def _count_plans(obj: Any, args: tuple, kwargs: dict, result: Any) -> tuple[float, float]:
    return float(len(args[0])), 0.0


def _count_features(obj: Any, args: tuple, kwargs: dict, result: Any) -> tuple[float, float]:
    return float(len(result)), 0.0


def _count_extract_plans(obj: Any, args: tuple, kwargs: dict, result: Any) -> tuple[float, float]:
    plans = args[0] if args else kwargs.get("plans", ())
    return float(sum(plan.operator_count() for plan in plans)), 0.0


def _count_rows(obj: Any, args: tuple, kwargs: dict, result: Any) -> tuple[float, float]:
    return float(_rows(args[0] if args else None)), 0.0


def _count_candidates(obj: Any, args: tuple, kwargs: dict, result: Any) -> tuple[float, float]:
    return float(len(getattr(result, "candidates", ()))), 0.0


def _count_kernel(obj: Any, args: tuple, kwargs: dict, result: Any) -> tuple[float, float]:
    rows = _rows(args[0] if args else kwargs.get("features"))
    return float(rows), float(rows * int(getattr(obj, "n_trees", 0)))


def _count_trees(obj: Any, args: tuple, kwargs: dict, result: Any) -> tuple[float, float]:
    return float(getattr(obj, "n_trees", 0)), 0.0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module.owner.attribute`` recorded as ``span``."""

    span: str
    module: str
    owner: str
    attribute: str
    counter: Counter = _no_count
    #: The entry point takes a plan list first; a span opened outside any
    #: request (on a serving thread) is named after the requests owning them.
    takes_plans: bool = False


#: The layers' public entry points, in the order they are reported.
TARGETS: tuple[Target, ...] = (
    Target("api.estimate", "repro.api.service", "EstimationService", "estimate_workload",
           _count_plans, takes_plans=True),
    Target("core.load", "repro.api.service", "EstimationService", "from_artifact"),
    Target("core.estimate_workload", "repro.core.estimator", "ResourceEstimator",
           "estimate_workload"),
    Target("core.estimate_extracted", "repro.core.estimator", "ResourceEstimator",
           "estimate_extracted_workload"),
    Target("features.extract_plan", "repro.core.estimator", "ResourceEstimator",
           "extract_plan_features", _count_features),
    Target("core.train", "repro.core.estimator", "ResourceEstimator", "train"),
    Target("core.save", "repro.core.estimator", "ResourceEstimator", "save"),
    Target("features.extract_plans", "repro.features.extractor", "FeatureExtractor",
           "extract_plans", _count_extract_plans),
    Target("core.model_set", "repro.core.trainer", "OperatorModelSet", "predict_batch",
           _count_rows),
    Target("core.select", "repro.core.trainer", "OperatorModelSet", "select_batch",
           _count_candidates),
    Target("core.combined", "repro.core.combined_model", "CombinedModel", "predict_batch",
           _count_rows),
    Target("ml.kernel", "repro.ml.mart", "MARTRegressor", "predict", _count_kernel),
    Target("ml.fit", "repro.ml.mart", "MARTRegressor", "fit", _count_trees),
    Target("robustness.ood", "repro.robustness.envelope", "FeatureEnvelope", "out_scores",
           _count_rows),
)


class Span:
    """One timed call; ``child`` accumulates the time its child spans cover."""

    __slots__ = ("name", "start", "end", "parent", "request", "n", "m", "child")

    def __init__(self, name: str, start: float, parent: "Span | None", request: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.n = 0.0
        self.m = 0.0
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records spans around :data:`TARGETS` while installed."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        #: ``id(plan) -> request id``: lets spans on a serving thread that
        #: handles several requests at once name the requests they serve.
        self.plan_requests: dict[int, int] = {}
        self._local = threading.local()
        self._restore: list[tuple[type, str, Any]] = []

    # -- request context ----------------------------------------------------------------------
    def set_request(self, request: Any) -> None:
        """Request id attached to the spans this thread opens from now on."""
        self._local.request = request

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, plans: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            request = parent.request
        else:
            request = getattr(self._local, "request", None)
            if request is None and plans is not None and self.plan_requests:
                owners = {self.plan_requests.get(id(plan)) for plan in plans}
                owners.discard(None)
                request = tuple(sorted(owners)) if owners else None
        span = Span(name, time.perf_counter(), parent, request)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    # -- wrapping -----------------------------------------------------------------------------
    def install(self) -> "Tracer":
        self.absent = []
        for target in self.targets:
            try:
                owner = getattr(importlib.import_module(target.module), target.owner)
                raw = inspect.getattr_static(owner, target.attribute)
            except (ImportError, AttributeError):
                self.absent.append(target.span)
                continue
            self._restore.append((owner, target.attribute, raw))
            setattr(owner, target.attribute, self._wrap(target, raw))
        return self

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()

    def _wrap(self, target: Target, raw: Any) -> Any:
        tracer = self
        if isinstance(raw, classmethod):
            func = raw.__func__

            def class_wrapper(cls: Any, *args: Any, **kwargs: Any) -> Any:
                span = tracer._open(target.span)
                try:
                    result = func(cls, *args, **kwargs)
                finally:
                    tracer._close(span)
                span.n, span.m = target.counter(cls, args, kwargs, result)
                return result

            return classmethod(class_wrapper)

        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            plans = None
            if target.takes_plans:
                plans = list(args[0]) if args else list(kwargs.pop("plans"))
                args = (plans,) + tuple(args[1:])
            span = tracer._open(target.span, plans)
            try:
                result = raw(obj, *args, **kwargs)
            finally:
                tracer._close(span)
            span.n, span.m = target.counter(obj, args, kwargs, result)
            return result

        return wrapper

    # -- output -------------------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as one JSON line (parent as an index into the file)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = index.get(id(span.parent)) if span.parent is not None else None
                request = list(span.request) if isinstance(span.request, tuple) else span.request
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": parent, "request": request, "n": span.n, "m": span.m,
                }) + "\n")


def aggregate(spans: list[Span], start: float, end: float) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self time (s) and work counts in ``[start, end)``."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        if not start <= span.start < end:
            continue
        entry = totals.setdefault(span.name, {"calls": 0.0, "self_s": 0.0, "n": 0.0, "m": 0.0})
        entry["calls"] += 1
        entry["self_s"] += span.self_time
        entry["n"] += span.n
        entry["m"] += span.m
    return totals
