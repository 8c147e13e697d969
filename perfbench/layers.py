"""Per-layer metrics of a traced run.

Times are span self time summed over the traced phase and divided by the
requests it measured; counts are per request unless their name says
otherwise.  A layer the workload bypasses reports zero work.  Times of the
traced phase are rescaled to reference speed by the phase's median factor
(``speed.py``), like its latencies; set-up times are wall clock.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from spans import Span, Tracer, aggregate


def _percentile_ms(values: list[float], percentile: float) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return float(np.percentile(finite, percentile)) * 1000.0 if finite else 0.0


def _serving(spans: list[Span], after: float, workload: Any, requests: int) -> dict[str, float]:
    """Coalescer queueing, batching and demux, from the inner estimate spans.

    On the coalescer's thread the inner ``EstimationService.estimate_workload``
    span of a micro-batch names every request riding it.
    """
    batches = [
        span for span in spans
        if span.name == "api.estimate" and isinstance(span.request, tuple) and span.start >= after
    ]
    if not batches:
        return {"queue_p50": 0.0, "queue_p99": 0.0, "batch": 0.0, "demux": 0.0,
                "plans_per_batch": 0.0}
    waits, demux, busy = [], 0.0, 0.0
    for batch in batches:
        busy += batch.duration
        waits += [batch.start - workload.submitted[number] for number in batch.request]
        last = max(workload.resolved[number] for number in batch.request)
        if math.isfinite(last):
            demux += last - batch.end
    return {
        "queue_p50": _percentile_ms(waits, 50.0),
        "queue_p99": _percentile_ms(waits, 99.0),
        "batch": busy * 1000.0 / requests,
        "demux": demux * 1000.0 / requests,
        "plans_per_batch": sum(batch.n for batch in batches) / len(batches),
    }


def per_layer(
    tracer: Tracer,
    setup_end: float,
    traced: Any,
    untraced: Any,
    timings: dict[str, float],
    cache: dict[str, int],
    workload: Any,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced phases, with its unit.

    The tracer is installed during set-up and the traced phases only, so
    spans that start after ``setup_end`` belong to the traced phases.
    """
    requests = max(traced.attempted, 1)
    scale = traced.median_scale()
    measured = aggregate(tracer.spans, setup_end, math.inf)
    setup = aggregate(tracer.spans, -math.inf, setup_end)
    empty = {"calls": 0.0, "self_s": 0.0, "n": 0.0, "m": 0.0}

    def phase(span: str) -> dict[str, float]:
        return measured.get(span, empty)

    def per_request_ms(*names: str) -> float:
        return sum(phase(n)["self_s"] for n in names) * scale * 1000.0 / requests

    serving = _serving(tracer.spans, setup_end, workload, requests)
    operators = phase("features.extract_plan")["n"] + phase("features.extract_plans")["n"]
    extract_s = phase("features.extract_plan")["self_s"] + phase("features.extract_plans")["self_s"]
    kernel = phase("ml.kernel")
    traced_p50 = traced.latency_ms(50.0)
    untraced_p50 = untraced.latency_ms(50.0)
    degraded = workload.degraded_operators()
    lags = traced.lags_s
    return {
        "serving.queue_wait_p50_ms": (serving["queue_p50"] * scale, "ms"),
        "serving.queue_wait_p99_ms": (serving["queue_p99"] * scale, "ms"),
        "serving.batch_ms": (serving["batch"] * scale, "ms"),
        "serving.demux_ms": (serving["demux"] * scale, "ms"),
        "serving.plans_per_batch": (serving["plans_per_batch"], "count"),
        "generator.lag_p99_ms": ((_percentile_ms(lags, 99.0) if lags else 0.0) * scale, "ms"),
        "api.self_ms": (per_request_ms("api.estimate"), "ms"),
        "api.cache_hits": (cache["hits"] / requests, "count"),
        "api.cache_misses": (cache["misses"] / requests, "count"),
        "api.warmup_s": (timings["warmup"], "s"),
        "features.extract_us_per_op": (
            extract_s * scale * 1e6 / operators if operators else 0.0, "us"
        ),
        "features.operators": (operators / requests, "count"),
        "core.assemble_ms": (
            per_request_ms("core.estimate_workload", "core.estimate_extracted", "core.model_set"),
            "ms",
        ),
        "core.group_calls": (phase("core.model_set")["calls"] / requests, "count"),
        "core.selection_ms": (per_request_ms("core.select"), "ms"),
        "core.selection_candidates": (phase("core.select")["n"] / requests, "count"),
        "core.combined_ms": (per_request_ms("core.combined"), "ms"),
        "ml.kernel_ms": (per_request_ms("ml.kernel"), "ms"),
        "ml.kernel_calls": (kernel["calls"] / requests, "count"),
        "ml.rows_per_call": (kernel["n"] / kernel["calls"] if kernel["calls"] else 0.0, "count"),
        "ml.tree_rows": (kernel["m"] / requests, "count"),
        "robustness.ood_ms": (per_request_ms("robustness.ood"), "ms"),
        "robustness.degraded_operators": (degraded / max(len(workload.sequence), 1), "count"),
        "workloads.corpus_s": (timings["corpus"], "s"),
        "core.train_s": (setup.get("core.train", empty)["self_s"], "s"),
        "ml.fit_s": (setup.get("ml.fit", empty)["self_s"], "s"),
        "ml.trees_fit": (setup.get("ml.fit", empty)["n"], "count"),
        "core.save_s": (timings["save"], "s"),
        "core.load_s": (timings["load"], "s"),
        "core.artifact_bytes": (float(timings["artifact_bytes"]), "bytes"),
        "trace.latency_p50_ms": (traced_p50, "ms"),
        "trace.overhead_pct": ((traced_p50 / untraced_p50 - 1.0) * 100.0, "%"),
    }
