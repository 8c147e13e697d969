"""Each output check fails when it is fed a corrupted estimate.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any

import numpy as np
import pytest

from checks import check_estimate, check_futures, check_ratio_band, check_same
from inputs import plan_pool
from repro.core.estimator import WorkloadEstimate

RESOURCES = ("cpu", "io")


@pytest.fixture(scope="module")
def plans() -> list:
    return plan_pool("tpch", 4, seed=3)


def make_estimate(plans: list, scale: float = 1.0) -> WorkloadEstimate:
    """A clean estimate: operator ``k`` of a plan estimated as ``scale * (k + 1.5)``."""
    return WorkloadEstimate(
        plans=list(plans),
        resources=RESOURCES,
        operator_estimates={
            resource: [
                {op.node_id: scale * (op.node_id + 1.5) for op in plan.operators()}
                for plan in plans
            ]
            for resource in RESOURCES
        },
    )


class Corrupted:
    """An estimate whose ``pipelines()`` or ``query()`` view is off by a little."""

    def __init__(self, estimate: WorkloadEstimate, pipelines: float = 0.0, query_ulps: int = 0):
        self._estimate = estimate
        self._pipelines = pipelines
        self._query_ulps = query_ulps

    def __getattr__(self, name: str) -> Any:
        return getattr(self._estimate, name)

    def pipelines(self, index: int, resource: str) -> dict[int, float]:
        out = dict(self._estimate.pipelines(index, resource))
        first = next(iter(out))
        out[first] += self._pipelines
        return out

    def query(self, index: int, resource: str) -> float:
        value = self._estimate.query(index, resource)
        for _ in range(self._query_ulps):
            value = float(np.nextafter(value, np.inf))
        return value


def test_clean_estimate_passes(plans: list) -> None:
    estimate = make_estimate(plans)
    assert check_estimate(estimate, RESOURCES) == []
    assert check_same(estimate, 1, make_estimate(plans), 1, RESOURCES, query_totals=True) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_bounds_check_catches_bad_values(plans: list, bad: float) -> None:
    estimate = make_estimate(plans)
    operators = estimate.operator_estimates["io"][2]
    operators[next(iter(operators))] = bad
    assert check_estimate(estimate, RESOURCES)


def test_one_estimate_per_operator(plans: list) -> None:
    missing = make_estimate(plans)
    operators = missing.operator_estimates["cpu"][0]
    del operators[next(iter(operators))]
    assert check_estimate(missing, RESOURCES)

    extra = make_estimate(plans)
    extra.operator_estimates["cpu"][0][10_000] = 1.0
    assert check_estimate(extra, RESOURCES)


def test_pipeline_partition_check(plans: list) -> None:
    estimate = make_estimate(plans)
    assert check_estimate(Corrupted(estimate, pipelines=1e-3), RESOURCES)
    # A sum that differs only by rounding-level noise is not a failure.
    assert check_estimate(Corrupted(estimate, pipelines=1e-15), RESOURCES) == []


def test_paths_must_agree_bit_for_bit(plans: list) -> None:
    served = make_estimate(plans)
    reference = make_estimate(plans)
    operators = served.operator_estimates["cpu"][1]
    key = next(iter(operators))
    operators[key] = float(np.nextafter(operators[key], np.inf))
    assert check_same(served, 1, reference, 1, RESOURCES)
    # Other plans of the same estimate are untouched.
    assert check_same(served, 0, reference, 0, RESOURCES) == []


def test_query_totals_must_agree_when_asked(plans: list) -> None:
    served = Corrupted(make_estimate(plans), query_ulps=1)
    reference = make_estimate(plans)
    assert check_same(served, 0, reference, 0, RESOURCES) == []
    assert check_same(served, 0, reference, 0, RESOURCES, query_totals=True)


def test_futures_check() -> None:
    done: Future = Future()
    done.set_result(None)
    pending: Future = Future()
    assert check_futures([done], plans_submitted=3, plans_served=3) == []
    assert check_futures([done, pending], plans_submitted=3, plans_served=3)
    assert check_futures([done], plans_submitted=3, plans_served=4)


def test_ratio_band() -> None:
    actuals = np.array([10.0, 20.0, 30.0, 40.0])
    assert check_ratio_band(actuals * 1.5, actuals, "cpu") == []
    assert check_ratio_band(actuals / 1.5, actuals, "cpu") == []
    assert check_ratio_band(actuals * 3.0, actuals, "cpu")
    assert check_ratio_band(actuals / 3.0, actuals, "io")
    assert check_ratio_band([], [], "io")
