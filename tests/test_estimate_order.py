"""A plan's estimate does not depend on the batch it is estimated in.

The paper sums operator estimates into pipeline and query estimates
(Section 5.2).  Float addition is order-dependent, so a plan's totals are
only reproducible if its operators are always summed in the same order: each
plan's per-operator dict is keyed in the plan's own pre-order on every path.
These tests serve TPC-H and TPC-DS plans inside one mixed batch and check,
bit for bit and for both resources, that every other way of serving the same
plan gives the same per-operator, per-pipeline and per-query estimates:
alone, through the scalar per-operator methods, through the serving layer
(cache miss and hit) and as one request of a shared coalesced micro-batch.
"""

from __future__ import annotations

import itertools

import pytest

from repro.api import EstimationService
from repro.serving import ConcurrentEstimationService
from repro.workloads.tpcds import build_tpcds_workload

RESOURCES = ("cpu", "io")


def _bits(value: float) -> str:
    return float(value).hex()


@pytest.fixture(scope="module")
def mixed_plans(workload_split):
    """TPC-H and TPC-DS plans, interleaved."""
    _, test = workload_split
    tpch = [query.plan for query in test]
    tpcds = [
        query.plan
        for query in build_tpcds_workload(
            scale_factor=0.05, skew_z=0.8, n_queries=16, seed=5
        ).queries
    ]
    pairs = itertools.zip_longest(tpch, tpcds)
    return [plan for pair in pairs for plan in pair if plan is not None]


@pytest.fixture(scope="module")
def batch(trained_estimator, mixed_plans):
    return trained_estimator.estimate_workload(mixed_plans, RESOURCES)


def _assert_same_plan(reference, index, other, other_index):
    """Bit-for-bit equality of one plan's estimates in two estimates."""
    for resource in RESOURCES:
        assert _bits(other.query(other_index, resource)) == _bits(
            reference.query(index, resource)
        )
        assert _bits(other.query_totals(resource)[other_index]) == _bits(
            reference.query(index, resource)
        )
        assert {
            pipeline: _bits(value)
            for pipeline, value in other.pipelines(other_index, resource).items()
        } == {
            pipeline: _bits(value)
            for pipeline, value in reference.pipelines(index, resource).items()
        }
        assert list(other.operators(other_index, resource).items()) == list(
            reference.operators(index, resource).items()
        )


class TestPlanOrderedKeys:
    def test_keys_follow_plan_preorder(self, batch, mixed_plans):
        for index, plan in enumerate(mixed_plans):
            expected = [op.node_id for op in plan.operators()]
            for resource in RESOURCES:
                assert list(batch.operators(index, resource)) == expected


class TestEstimateIndependentOfBatch:
    def test_alone_matches_batch(self, trained_estimator, batch, mixed_plans):
        for index, plan in enumerate(mixed_plans):
            alone = trained_estimator.estimate_workload([plan], RESOURCES)
            _assert_same_plan(batch, index, alone, 0)

    def test_reversed_batch_matches_batch(
        self, trained_estimator, batch, mixed_plans
    ):
        reversed_estimate = trained_estimator.estimate_workload(
            mixed_plans[::-1], RESOURCES
        )
        last = len(mixed_plans) - 1
        for index in range(len(mixed_plans)):
            _assert_same_plan(batch, index, reversed_estimate, last - index)

    def test_scalar_path_matches_batch(self, trained_estimator, batch, mixed_plans):
        for index, plan in enumerate(mixed_plans):
            for resource in RESOURCES:
                assert _bits(trained_estimator.estimate_plan(plan, resource)) == _bits(
                    batch.query(index, resource)
                )
                scalar_ops = trained_estimator.estimate_operators(plan, resource)
                assert list(scalar_ops.items()) == list(
                    batch.operators(index, resource).items()
                )
                assert {
                    pipeline: _bits(value)
                    for pipeline, value in trained_estimator.estimate_pipelines(
                        plan, resource
                    ).items()
                } == {
                    pipeline: _bits(value)
                    for pipeline, value in batch.pipelines(index, resource).items()
                }

    def test_service_miss_and_hit_match_batch(
        self, trained_estimator, batch, mixed_plans
    ):
        service = EstimationService(trained_estimator)
        for index, plan in enumerate(mixed_plans):
            miss = service.estimate_workload([plan], RESOURCES)
            assert service.stats.cache_misses == index + 1
            hit = service.estimate_workload([plan], RESOURCES)
            assert service.stats.cache_hits == index + 1
            _assert_same_plan(batch, index, miss, 0)
            _assert_same_plan(batch, index, hit, 0)

    def test_coalesced_request_matches_batch(
        self, trained_estimator, batch, mixed_plans
    ):
        # One request per plan, submitted in reverse order; the plan budget
        # closes the micro-batch only once every request has joined it.
        service = EstimationService(trained_estimator)
        order = list(range(len(mixed_plans)))[::-1]
        with ConcurrentEstimationService(
            service, max_batch_size=len(mixed_plans), max_wait_ms=5000.0
        ) as server:
            futures = {
                index: server.submit([mixed_plans[index]], RESOURCES)
                for index in order
            }
            results = {
                index: future.result(timeout=60) for index, future in futures.items()
            }
            stats = server.coalescing_stats()
        assert stats.batches == 1
        assert stats.requests == len(mixed_plans)
        for index, estimate in results.items():
            _assert_same_plan(batch, index, estimate, 0)
