"""Tests for scaling functions, the selection framework and scaled-model transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scaled_model import ScalingStep
from repro.core.scaling import (
    SCALING_FUNCTIONS,
    TWO_INPUT_SCALING_FUNCTIONS,
    ScalingFunctionSelector,
    default_scaling_function,
    make_scaling_function,
)
from repro.features.definitions import OperatorFamily

from reference import transform_feature_dict, transform_targets


class TestScalingFunctions:
    def test_linear_is_identity(self):
        assert SCALING_FUNCTIONS["linear"](7.0) == pytest.approx(7.0)

    def test_nlogn_value(self):
        assert SCALING_FUNCTIONS["nlogn"](8.0) == pytest.approx(8.0 * np.log2(9.0))

    def test_quadratic_and_sqrt(self):
        assert SCALING_FUNCTIONS["quadratic"](3.0) == pytest.approx(9.0)
        assert SCALING_FUNCTIONS["sqrt"](49.0) == pytest.approx(7.0)

    def test_two_input_functions(self):
        assert TWO_INPUT_SCALING_FUNCTIONS["sum"](2.0, 3.0) == pytest.approx(5.0)
        assert TWO_INPUT_SCALING_FUNCTIONS["product"](2.0, 3.0) == pytest.approx(6.0)
        assert TWO_INPUT_SCALING_FUNCTIONS["outer_log_inner"](4.0, 7.0) == pytest.approx(
            4.0 * np.log2(8.0)
        )

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            SCALING_FUNCTIONS["linear"](1.0, 2.0)
        with pytest.raises(ValueError):
            TWO_INPUT_SCALING_FUNCTIONS["sum"](1.0)

    def test_lookup_by_name(self):
        assert make_scaling_function("nlogn").name == "nlogn"
        assert make_scaling_function("outer_log_inner").arity == 2
        with pytest.raises(ValueError):
            make_scaling_function("cubic")

    def test_vectorised_evaluation(self):
        values = np.array([1.0, 2.0, 4.0])
        assert SCALING_FUNCTIONS["linear"](values).shape == (3,)


class TestDefaultScalingChoices:
    def test_sort_cardinality_scales_nlogn(self):
        assert default_scaling_function(OperatorFamily.SORT, "CIN1", "cpu").name == "nlogn"

    def test_seek_table_size_scales_logarithmically(self):
        assert default_scaling_function(OperatorFamily.SEEK, "TSIZE", "cpu").name == "log"

    def test_filter_defaults_to_linear(self):
        assert default_scaling_function(OperatorFamily.FILTER, "CIN1", "cpu").name == "linear"

    def test_io_always_linear(self):
        assert default_scaling_function(OperatorFamily.SORT, "CIN1", "io").name == "linear"


class TestSelectionFramework:
    def test_recovers_nlogn_curve(self):
        x = np.linspace(1_000, 500_000, 40)
        y = 0.05 * x * np.log2(x)
        best = ScalingFunctionSelector().select(x, y)
        assert best.function.name == "nlogn"
        assert best.alpha == pytest.approx(0.05, rel=0.15)

    def test_recovers_linear_curve(self):
        x = np.linspace(10, 10_000, 30)
        best = ScalingFunctionSelector().select(x, 3.0 * x)
        assert best.function.name == "linear"

    def test_recovers_quadratic_curve(self):
        x = np.linspace(10, 1_000, 30)
        best = ScalingFunctionSelector().select(x, 0.2 * x**2)
        assert best.function.name == "quadratic"

    def test_recovers_two_input_product_form(self):
        rng = np.random.default_rng(0)
        pairs = np.column_stack([rng.uniform(10, 1e4, 50), rng.uniform(10, 1e6, 50)])
        y = 0.3 * pairs[:, 0] * np.log2(pairs[:, 1] + 1)
        selector = ScalingFunctionSelector(list(TWO_INPUT_SCALING_FUNCTIONS.values()))
        assert selector.select(pairs, y).function.name == "outer_log_inner"

    def test_fit_all_sorted_by_error(self):
        x = np.linspace(1, 100, 20)
        fits = ScalingFunctionSelector().fit_all(x, 2.0 * x)
        errors = [f.l2_error for f in fits]
        assert errors == sorted(errors)

    def test_two_input_shape_validation(self):
        selector = ScalingFunctionSelector([TWO_INPUT_SCALING_FUNCTIONS["sum"]])
        with pytest.raises(ValueError):
            selector.select(np.linspace(0, 1, 5), np.linspace(0, 1, 5))


class TestScaledModelTransforms:
    def test_scaling_feature_removed(self):
        step = ScalingStep("CIN1", SCALING_FUNCTIONS["linear"])
        transformed = transform_feature_dict({"CIN1": 100.0, "SOUTAVG": 8.0}, (step,))
        assert "CIN1" not in transformed
        assert transformed["SOUTAVG"] == 8.0

    def test_dependent_features_normalised(self):
        step = ScalingStep("CIN1", SCALING_FUNCTIONS["linear"])
        values = {"CIN1": 100.0, "SINTOT1": 5_000.0, "SINAVG1": 50.0}
        transformed = transform_feature_dict(values, (step,))
        assert transformed["SINTOT1"] == pytest.approx(50.0)  # divided by CIN1
        assert transformed["SINAVG1"] == pytest.approx(50.0)  # independent, untouched

    def test_multi_step_transforms_apply_sequentially(self):
        steps = (
            ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),
            ScalingStep("SINAVG1", SCALING_FUNCTIONS["linear"]),
        )
        values = {"CIN1": 10.0, "SINAVG1": 4.0, "SINTOT1": 40.0}
        transformed = transform_feature_dict(values, steps)
        assert "CIN1" not in transformed and "SINAVG1" not in transformed
        # SINTOT1 divided by CIN1 then by SINAVG1.
        assert transformed["SINTOT1"] == pytest.approx(1.0)

    def test_original_dict_not_modified(self):
        step = ScalingStep("CIN1", SCALING_FUNCTIONS["linear"])
        values = {"CIN1": 10.0, "SINTOT1": 100.0}
        transform_feature_dict(values, (step,))
        assert values == {"CIN1": 10.0, "SINTOT1": 100.0}

    def test_targets_divided_by_scale_factor(self):
        step = ScalingStep("CIN1", SCALING_FUNCTIONS["linear"])
        rows = [{"CIN1": 10.0}, {"CIN1": 100.0}]
        scaled = transform_targets(rows, np.array([50.0, 500.0]), (step,))
        assert scaled == pytest.approx([5.0, 5.0])

    def test_no_steps_is_identity(self):
        rows = [{"CIN1": 10.0}]
        targets = np.array([3.0])
        assert transform_targets(rows, targets, ()) == pytest.approx(targets)

    def test_zero_feature_value_is_guarded(self):
        step = ScalingStep("CIN1", SCALING_FUNCTIONS["linear"])
        scaled = transform_targets([{"CIN1": 0.0}], np.array([7.0]), (step,))
        assert np.isfinite(scaled).all()


@settings(max_examples=30, deadline=None)
@given(value=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
def test_scaling_functions_are_nonnegative_and_monotone(value):
    """Property: every single-input scaling function is non-negative and
    non-decreasing (required for the monotonicity argument in Section 6.3)."""
    for function in SCALING_FUNCTIONS.values():
        low = float(function(value))
        high = float(function(value * 2.0 + 1.0))
        assert low >= 0.0
        assert high >= low - 1e-9
