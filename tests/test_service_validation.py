"""Pre-flight validation through the serving session leaves its stats alone.

``EstimationService.validate_workload`` reads features through the shared
feature cache, but it serves no estimate: neither its cache lookups nor the
workload may show up in the session's counters.
"""

from __future__ import annotations

from repro.api import EstimationService


def test_validate_workload_leaves_stats_untouched(trained_estimator, tpch_plans):
    service = EstimationService(trained_estimator)
    plans = tpch_plans[:5]
    before = service.stats.snapshot()
    first = service.validate_workload(plans)
    second = service.validate_workload(plans)
    assert service.stats.snapshot() == before
    assert first == second
    assert first.n_plans == len(plans)


def test_validation_report_matches_the_validator(trained_estimator, tpch_plans):
    service = EstimationService(trained_estimator)
    plans = tpch_plans[:5]
    expected = service.validator.validate_workload(
        [trained_estimator.extract_plan_features(plan) for plan in plans]
    )
    assert service.validate_workload(plans) == expected


def test_validated_plans_are_cached_for_estimation(trained_estimator, tpch_plans):
    service = EstimationService(trained_estimator)
    plans = tpch_plans[:5]
    service.validate_workload(plans)
    service.estimate_workload(plans)
    assert service.stats.cache_hits == len(plans)
    assert service.stats.cache_misses == 0
