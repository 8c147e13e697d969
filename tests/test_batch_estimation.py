"""Batch/scalar parity of the end-to-end estimation path, plus the fallback fix.

The scalar estimation API is a one-row wrapper over the batched one, so these
tests pin the remaining nontrivial batch machinery: the per-family grouping
and scatter of ``estimate_workload``, a model set routing one batch's rows
to different models, the matrix transform against its dictionary
specification, and the cross-query grouping of
``ScalingTechnique.predict_queries`` — across TPC-H and TPC-DS sample
workloads and both resources.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ResourceEstimator
from repro.core.combined_model import CombinedModel
from repro.core.scaled_model import MIN_DIVISOR, ScalingStep
from repro.core.scaling import SCALING_FUNCTIONS
from repro.core.trainer import OperatorModelSet
from repro.baselines import ScalingTechnique
from repro.features.definitions import FeatureMode, OperatorFamily
from repro.ml.mart import MARTConfig
from repro.workloads.datasets import build_training_data, split_workload
from repro.workloads.tpcds import build_tpcds_workload

from reference import model_set_predict_batch, transform_feature_dict, transform_targets

RESOURCES = ("cpu", "io")

FEATURES = ("COUT", "SOUTAVG", "SOUTTOT", "CIN1", "SINAVG1", "SINTOT1",
            "CIN2", "SINAVG2", "SINTOT2", "OUTPUTUSAGE", "CPREDICATES")


def synthetic_rows(n: int = 300, seed: int = 0, max_rows: float = 10_000.0):
    """Filter-like training rows: CPU = 0.05 * CIN1 * (1 + width/200)."""
    rng = np.random.default_rng(seed)
    rows, targets = [], []
    for _ in range(n):
        cin = float(rng.uniform(100, max_rows))
        width = float(rng.uniform(10, 200))
        cout = cin * float(rng.uniform(0.1, 0.9))
        rows.append({
            "COUT": cout, "SOUTAVG": width, "SOUTTOT": cout * width,
            "CIN1": cin, "SINAVG1": width, "SINTOT1": cin * width,
            "CIN2": 0.0, "SINAVG2": 0.0, "SINTOT2": 0.0,
            "OUTPUTUSAGE": 3.0, "CPREDICATES": 1.0,
        })
        targets.append(0.05 * cin * (1.0 + width / 200.0))
    return rows, np.array(targets)


def tiny_mart() -> MARTConfig:
    return MARTConfig(n_iterations=30, max_leaves=8, learning_rate=0.2, subsample=1.0)


@pytest.fixture(scope="module")
def tpcds_split():
    workload = build_tpcds_workload(scale_factor=0.1, skew_z=0.8, n_queries=36, seed=13)
    return split_workload(workload, train_fraction=0.75, seed=5)


@pytest.fixture(scope="module")
def tpcds_estimator(tpcds_split, tiny_trainer_config):
    train, _ = tpcds_split
    training_data = build_training_data(train, FeatureMode.EXACT)
    return ResourceEstimator.train(
        training_data, FeatureMode.EXACT, resources=RESOURCES, config=tiny_trainer_config
    )


def _assert_workload_matches_scalar(estimator, plans):
    estimate = estimator.estimate_workload(plans, RESOURCES)
    assert estimate.n_plans == len(plans)
    for resource in RESOURCES:
        totals = estimate.query_totals(resource)
        assert totals.shape == (len(plans),)
        for index, plan in enumerate(plans):
            scalar_ops = estimator.estimate_operators(plan, resource)
            assert estimate.operators(index, resource) == pytest.approx(scalar_ops, rel=1e-9)
            assert estimate.pipelines(index, resource) == pytest.approx(
                estimator.estimate_pipelines(plan, resource), rel=1e-9
            )
            assert estimate.query(index, resource) == pytest.approx(
                estimator.estimate_plan(plan, resource), rel=1e-9
            )
            assert totals[index] == pytest.approx(estimate.query(index, resource), rel=1e-12)


class TestEstimateWorkloadParity:
    def test_tpch_batch_matches_scalar(self, trained_estimator, workload_split):
        _, test = workload_split
        _assert_workload_matches_scalar(trained_estimator, [q.plan for q in test])

    def test_tpcds_batch_matches_scalar(self, tpcds_estimator, tpcds_split):
        _, test = tpcds_split
        _assert_workload_matches_scalar(tpcds_estimator, [q.plan for q in test])

    def test_unknown_resource_rejected(self, trained_estimator, workload_split):
        _, test = workload_split
        with pytest.raises(ValueError):
            trained_estimator.estimate_workload([test[0].plan], ("memory",))
        estimate = trained_estimator.estimate_workload([test[0].plan], ("cpu",))
        with pytest.raises(ValueError):
            estimate.query_totals("io")

    def test_empty_workload(self, trained_estimator):
        estimate = trained_estimator.estimate_workload([])
        assert estimate.n_plans == 0
        assert estimate.query_totals("cpu").shape == (0,)


class TestScalingTechniqueBatch:
    def test_predict_queries_matches_per_query(self, workload_split, tiny_trainer_config):
        train, test = workload_split
        technique = ScalingTechnique(trainer_config=tiny_trainer_config)
        technique.fit(train, "cpu", FeatureMode.EXACT)
        batched = technique.predict_queries(test)
        singles = np.array([technique.predict_query(query) for query in test])
        assert batched == pytest.approx(singles, rel=1e-9)

    def test_empty_query_list(self, workload_split, tiny_trainer_config):
        train, _ = workload_split
        technique = ScalingTechnique(trainer_config=tiny_trainer_config)
        technique.fit(train, "cpu", FeatureMode.EXACT)
        assert technique.predict_queries([]).shape == (0,)


class TestCombinedModelBatch:
    def _outlier_rows(self, n: int = 64):
        """Training-range rows mixed with far-out-of-range outliers."""
        rows, _ = synthetic_rows(n, seed=42)
        for i, row in enumerate(rows):
            if i % 3 == 0:
                row["CIN1"] = 1_000_000.0 * (1 + i)
                row["SINTOT1"] = row["CIN1"] * row["SINAVG1"]
        return rows

    def test_model_set_batch_routes_rows_to_different_models(self):
        rows, targets = synthetic_rows(max_rows=5_000.0)
        plain = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        plain.fit(rows, targets)
        scaled = CombinedModel(
            OperatorFamily.FILTER, "cpu", FEATURES,
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),), tiny_mart(),
        )
        scaled.fit(rows, targets)
        model_set = OperatorModelSet(
            family=OperatorFamily.FILTER, resource="cpu",
            models=[plain, scaled], default_model=plain,
        )
        estimator = ResourceEstimator(model_sets={(OperatorFamily.FILTER, "cpu"): model_set})
        matrix = plain.feature_matrix(self._outlier_rows())
        selection = model_set.select_batch(matrix)
        # In-range rows keep the plain default; CIN1 outliers switch to the
        # scaled model — the served batch must handle both groups in one call,
        # as the per-model path and one row at a time do.
        assert len(np.unique(selection.indices)) == 2
        batched = estimator.estimate_family_matrix(OperatorFamily.FILTER, matrix, "cpu")
        assert batched.tobytes() == model_set_predict_batch(model_set, matrix).tobytes()
        singles = np.concatenate([
            estimator.estimate_family_matrix(OperatorFamily.FILTER, matrix[i : i + 1], "cpu")
            for i in range(len(matrix))
        ])
        assert batched.tobytes() == singles.tobytes()

    def test_transform_matrix_matches_reference_dict_transform(self):
        """transform_matrix must agree with the dict reference in tests/reference.py.

        The dict functions are the Section 6.1 specification; the matrix path
        is the production implementation — this pins them together so neither
        can drift silently.
        """
        rows = self._outlier_rows(32)
        targets = np.linspace(1.0, 500.0, len(rows))
        for steps in (
            (),
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),),
            (ScalingStep("CIN1", SCALING_FUNCTIONS["nlogn"]),),
            (
                ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),
                ScalingStep("SINAVG1", SCALING_FUNCTIONS["linear"]),
            ),
        ):
            model = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, steps, tiny_mart())
            matrix = model.transform_matrix(model.feature_matrix(rows))
            reference = np.array(
                [
                    [transform_feature_dict(row, steps).get(n, 0.0) for n in model.input_features_]
                    for row in rows
                ]
            )
            assert matrix == pytest.approx(reference, rel=1e-12)
            scaled = model._step_factors(model.feature_matrix(rows), floor=MIN_DIVISOR)
            assert targets / scaled == pytest.approx(
                transform_targets(rows, targets, steps), rel=1e-12
            )


class TestFallbackModel:
    """Regression tests for the fallback constant bug (estimator.py).

    The seed computed ``constant = median(targets) * 0.0`` — a dead term that
    was always 0.  The chosen fix drops the constant entirely: the fallback
    predicts the median per-output-tuple rate times the instance's
    cardinality, exactly as its docstring always claimed.
    """

    def test_no_constant_offset(self, trained_estimator):
        fallback = trained_estimator.fallbacks["cpu"]
        assert fallback.predict_batch(np.array([0.0]), np.array([0.0]))[0] == 0.0
        assert not hasattr(fallback, "constant")

    def test_prediction_is_per_tuple_rate_times_rows(self, trained_estimator):
        fallback = trained_estimator.fallbacks["cpu"]
        assert fallback.per_tuple > 0.0
        # max(COUT, CIN1) drives the estimate.
        estimates = fallback.predict_batch(np.array([1_000.0, 10.0]), np.array([0.0, 5_000.0]))
        assert estimates == pytest.approx(fallback.per_tuple * np.array([1_000.0, 5_000.0]))

    def test_unseen_family_routed_through_fallback(self, trained_estimator):
        families = trained_estimator.families("cpu")
        unseen = next(f for f in OperatorFamily if f not in families)
        estimates = trained_estimator.estimate_feature_rows(
            unseen, [{"COUT": 100.0}, {"COUT": 200.0}], "cpu"
        )
        assert estimates[1] == pytest.approx(2 * estimates[0])


def test_mart_config_used_for_batch_suite_is_small():
    """Guard: the parity suite must stay fast (tiny boosting budgets only)."""
    assert tiny_mart().n_iterations <= 50
    assert MARTConfig().n_iterations >= 100
