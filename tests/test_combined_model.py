"""Tests for combined models, model selection and the trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ResourceEstimator
from repro.core.combined_model import CombinedModel
from repro.core.model_selection import SelectionTables
from repro.core.scaled_model import ScalingStep
from repro.core.scaling import SCALING_FUNCTIONS
from repro.core.trainer import (
    FamilyTrainingData,
    OperatorModelSet,
    ScalingModelTrainer,
    TrainerConfig,
)
from repro.features.definitions import OperatorFamily
from repro.ml.mart import MARTConfig

from reference import combined_predict_batch, out_ratio_matrix, out_ratio_profiles

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
        row = {
            "COUT": cout,
            "SOUTAVG": width,
            "SOUTTOT": cout * width,
            "CIN1": cin,
            "SINAVG1": width,
            "SINTOT1": cin * width,
            "CIN2": 0.0,
            "SINAVG2": 0.0,
            "SINTOT2": 0.0,
            "OUTPUTUSAGE": 3.0,
            "CPREDICATES": 1.0,
        }
        rows.append(row)
        targets.append(0.05 * cin * (1.0 + width / 200.0))
    return rows, np.array(targets)


def tiny_mart() -> MARTConfig:
    return MARTConfig(n_iterations=30, max_leaves=8, learning_rate=0.2, subsample=1.0)


def served(model_set: OperatorModelSet, matrix: np.ndarray) -> np.ndarray:
    """The set's estimates for raw rows, through the estimator's serving path."""
    key = (model_set.family, model_set.resource)
    estimator = ResourceEstimator(model_sets={key: model_set})
    return estimator.estimate_family_matrix(model_set.family, matrix, model_set.resource)


class TestCombinedModel:
    def test_plain_model_fits_training_data(self):
        rows, targets = synthetic_rows()
        model = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        model.fit(rows, targets)
        assert model.training_error_ < 0.2
        assert model.is_default_form
        assert model.n_training_rows_ == len(rows)

    def test_scaled_model_extrapolates(self):
        """A CIN1-scaled model stays accurate 20x beyond the training range."""
        rows, targets = synthetic_rows(max_rows=10_000.0)
        scaled = CombinedModel(
            OperatorFamily.FILTER, "cpu", FEATURES,
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),), tiny_mart(),
        )
        plain = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        scaled.fit(rows, targets)
        plain.fit(rows, targets)

        big = {
            "COUT": 100_000.0, "SOUTAVG": 100.0, "SOUTTOT": 1e7,
            "CIN1": 200_000.0, "SINAVG1": 100.0, "SINTOT1": 2e7,
            "CIN2": 0.0, "SINAVG2": 0.0, "SINTOT2": 0.0,
            "OUTPUTUSAGE": 3.0, "CPREDICATES": 1.0,
        }
        truth = 0.05 * 200_000.0 * 1.5
        row = plain.feature_matrix([big])
        scaled_error = abs(combined_predict_batch(scaled, row)[0] - truth) / truth
        plain_error = abs(combined_predict_batch(plain, row)[0] - truth) / truth
        assert scaled_error < 0.4
        assert scaled_error < plain_error

    def test_out_ratio_zero_inside_training_range(self):
        rows, targets = synthetic_rows()
        model = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        model.fit(rows, targets)
        assert out_ratio_profiles(model, model.feature_matrix(rows[:1]))[0, 0] == 0.0

    def test_out_ratio_positive_outside_training_range(self):
        rows, targets = synthetic_rows(max_rows=5_000.0)
        model = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        model.fit(rows, targets)
        outlier = dict(rows[0])
        outlier["CIN1"] = 500_000.0
        ratios = out_ratio_matrix(model, model.feature_matrix([outlier]))
        assert ratios[0, model.input_features_.index("CIN1")] > 1.0

    def test_scaled_model_ignores_out_of_range_scaling_feature(self):
        rows, targets = synthetic_rows(max_rows=5_000.0)
        scaled = CombinedModel(
            OperatorFamily.FILTER, "cpu", FEATURES,
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),), tiny_mart(),
        )
        scaled.fit(rows, targets)
        outlier = dict(rows[0])
        outlier["CIN1"] = 500_000.0
        outlier["SINTOT1"] = outlier["CIN1"] * outlier["SINAVG1"]
        # CIN1 is not an input of the scaled model, and SINTOT1 is normalised
        # by CIN1, so the instance is no longer an outlier for this model.
        assert "CIN1" not in scaled.input_features_
        assert out_ratio_profiles(scaled, scaled.feature_matrix([outlier]))[0, 0] < 0.5

    def test_predictions_are_nonnegative(self):
        rows, targets = synthetic_rows()
        model = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        model.fit(rows, targets)
        tiny = {name: 0.0 for name in FEATURES}
        assert combined_predict_batch(model, model.feature_matrix([tiny]))[0] >= 0.0

    def test_unfitted_model_raises(self):
        model = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        model_set = OperatorModelSet(OperatorFamily.FILTER, "cpu", models=[model],
                                     default_model=model)
        with pytest.raises(RuntimeError):
            served(model_set, model.feature_matrix([{name: 1.0 for name in FEATURES}]))
        with pytest.raises(ValueError):
            model.fit([], np.array([]))

    def test_name_encodes_scaling(self):
        plain = CombinedModel(OperatorFamily.SORT, "cpu", FEATURES, ())
        scaled = CombinedModel(
            OperatorFamily.SORT, "cpu", FEATURES,
            (ScalingStep("CIN1", SCALING_FUNCTIONS["nlogn"]),),
        )
        assert "plain" in plain.name
        assert "CIN1:nlogn" in scaled.name


def select_one(default, models, feature_values):
    """(chosen model, selection) for one operator instance."""
    selection = SelectionTables(default, models).select(default.feature_matrix([feature_values]))
    return selection.candidates[selection.indices[0]], selection


class TestModelSelection:
    def _models(self):
        rows, targets = synthetic_rows(max_rows=5_000.0)
        plain = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        plain.fit(rows, targets)
        scaled = CombinedModel(
            OperatorFamily.FILTER, "cpu", FEATURES,
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),), tiny_mart(),
        )
        scaled.fit(rows, targets)
        return rows, plain, scaled

    def test_default_used_when_in_range(self):
        rows, plain, scaled = self._models()
        model, selection = select_one(plain, [plain, scaled], rows[0])
        assert model is plain
        assert selection.used_default[0]
        assert selection.max_out_ratios[0] == 0.0

    def test_scaled_model_chosen_for_outliers(self):
        rows, plain, scaled = self._models()
        outlier = dict(rows[0])
        outlier["CIN1"] = 1_000_000.0
        outlier["SINTOT1"] = outlier["CIN1"] * outlier["SINAVG1"]
        model, selection = select_one(plain, [plain, scaled], outlier)
        assert model is scaled
        assert not selection.used_default[0]

    def test_tie_break_prefers_fewer_scaling_features(self):
        rows, targets = synthetic_rows()
        single = CombinedModel(
            OperatorFamily.FILTER, "cpu", FEATURES,
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),), tiny_mart(),
        ).fit(rows, targets)
        double = CombinedModel(
            OperatorFamily.FILTER, "cpu", FEATURES,
            (
                ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),
                ScalingStep("SOUTAVG", SCALING_FUNCTIONS["linear"]),
            ),
            tiny_mart(),
        ).fit(rows, targets)
        plain = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart()).fit(
            rows, targets
        )
        outlier = dict(rows[0])
        outlier["CIN1"] = 1_000_000.0
        outlier["SINTOT1"] = outlier["CIN1"] * outlier["SINAVG1"]
        model, _ = select_one(plain, [plain, single, double], outlier)
        assert model is single


class TestTrainer:
    def _family_data(self, n: int = 200) -> FamilyTrainingData:
        rows, targets = synthetic_rows(n)
        data = FamilyTrainingData(family=OperatorFamily.FILTER)
        for row, target in zip(rows, targets):
            data.add(row, {"cpu": target, "io": 0.0})
        return data

    def test_trains_plain_and_scaled_models(self):
        trainer = ScalingModelTrainer(TrainerConfig(mart=tiny_mart(), max_pair_models=1))
        model_set = trainer.train_family(self._family_data(), "cpu")
        assert model_set is not None
        assert any(m.is_default_form for m in model_set.models)
        assert any(m.n_scaling_features == 1 for m in model_set.models)
        assert model_set.default_model in model_set.models

    def test_default_model_minimises_training_error(self):
        trainer = ScalingModelTrainer(TrainerConfig(mart=tiny_mart()))
        model_set = trainer.train_family(self._family_data(), "cpu")
        best_error = min(m.training_error_ for m in model_set.models)
        assert model_set.default_model.training_error_ == pytest.approx(best_error)

    def test_insufficient_rows_returns_none(self):
        trainer = ScalingModelTrainer(TrainerConfig(mart=tiny_mart(), min_training_rows=50))
        assert trainer.train_family(self._family_data(10), "cpu") is None

    def test_model_set_predicts_positive_values(self):
        trainer = ScalingModelTrainer(TrainerConfig(mart=tiny_mart(), max_pair_models=1))
        model_set = trainer.train_family(self._family_data(), "cpu")
        rows, _ = synthetic_rows(5, seed=99)
        estimates = served(model_set, model_set.default_model.feature_matrix(rows))
        assert estimates.shape == (5,)
        assert (estimates >= 0.0).all()

    def test_constant_features_not_used_for_scaling(self):
        trainer = ScalingModelTrainer(TrainerConfig(mart=tiny_mart()))
        model_set = trainer.train_family(self._family_data(), "cpu")
        for model in model_set.models:
            assert "CIN2" not in model.scaling_feature_names  # constant zero in the data
