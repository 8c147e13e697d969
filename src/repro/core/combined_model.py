"""Combined models: scaling function ∘ scaled MART model (paper Section 6).

A :class:`CombinedModel` with zero scaling steps is a plain ("default-style")
MART model over the raw operator features.  With one or more scaling steps,
the underlying MART model is trained on transformed data (targets divided by
the scaling factors, scaling features removed, dependent features
normalised) and predictions are multiplied back up by the scaling factors.

Every model records the training range (low/high) of each of its *own* input
features — in its own transformed space — which is what the out_ratio model
selection heuristic compares against at estimation time.

At estimation time the estimator gets each row's transformed input (the
row of :meth:`CombinedModel.transform_matrix`) from model selection and the
MART outputs from one forest-bank call; each chosen model then clips and
scales its own rows (:meth:`CombinedModel.finish_batch`).
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.scaled_model import MIN_DIVISOR, ScalingStep
from repro.features.definitions import OperatorFamily
from repro.features.dependencies import dependent_features
from repro.ml.mart import MARTConfig, MARTRegressor
from repro.ml.metrics import l1_relative_error

__all__ = ["CombinedModel"]


@dataclass
class CombinedModel:
    """A (possibly scaled) MART model for one operator family and resource."""

    family: OperatorFamily
    resource: str
    feature_names: tuple[str, ...]
    steps: tuple[ScalingStep, ...] = ()
    mart_config: MARTConfig = field(default_factory=MARTConfig)

    def __post_init__(self) -> None:
        self.model_: MARTRegressor | None = None
        #: Input feature names of the scaled model (scaling features removed).
        self.input_features_: tuple[str, ...] = tuple(
            name for name in self.feature_names if name not in self.scaling_feature_names
        )
        self._column_index: dict[str, int] = {
            name: i for i, name in enumerate(self.feature_names)
        }
        self._input_columns: list[int] = [
            self._column_index[name] for name in self.input_features_
        ]
        self.training_low_: dict[str, float] = {}
        self.training_high_: dict[str, float] = {}
        self.training_error_: float = float("inf")
        self.n_training_rows_: int = 0
        #: Range of the (scaled) training targets; scaled-model outputs are
        #: clamped to it at prediction time (see ``finish_batch``).
        self.scaled_target_low_: float = 0.0
        self.scaled_target_high_: float = float("inf")

    # -- identity -----------------------------------------------------------------------------
    @property
    def scaling_feature_names(self) -> tuple[str, ...]:
        return tuple(step.feature for step in self.steps)

    @property
    def n_scaling_features(self) -> int:
        return len(self.steps)

    @property
    def is_default_form(self) -> bool:
        """True when the model uses no scaling at all."""
        return not self.steps

    @property
    def input_columns(self) -> list[int]:
        """Raw-matrix column of each input feature of the scaled MART model."""
        return self._input_columns

    @property
    def name(self) -> str:
        if not self.steps:
            return f"{self.family.value}/{self.resource}/plain"
        parts = "+".join(f"{s.feature}:{s.function.name}" for s in self.steps)
        return f"{self.family.value}/{self.resource}/scaled[{parts}]"

    # -- matrix plumbing ------------------------------------------------------------------------
    def feature_matrix(self, feature_rows: Sequence[dict[str, float]]) -> np.ndarray:
        """Dense ``(n, len(feature_names))`` matrix in this model's raw feature order."""
        return np.array(
            [[row.get(name, 0.0) for name in self.feature_names] for row in feature_rows],
            dtype=np.float64,
        ).reshape(len(feature_rows), len(self.feature_names))

    def transform_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Vectorised scaling transform of a raw feature matrix.

        Applies the scaling steps in order (Section 6.1): each step divides
        the columns that depend on its feature by that feature's current
        value (its absolute value, floored at ``MIN_DIVISOR``), and the
        scaling columns are removed.  Returns the
        ``(n, len(input_features_))`` matrix the scaled MART model consumes.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if not self.steps:
            return matrix[:, self._input_columns]
        work = matrix.copy()
        removed: set[str] = set()
        for step in self.steps:
            column = self._column_index.get(step.feature)
            if column is None:
                raw = np.zeros(work.shape[0], dtype=np.float64)
            elif step.feature in removed:
                raw = matrix[:, column]
            else:
                raw = work[:, column]
            divisor = np.maximum(np.abs(raw), MIN_DIVISOR)
            for dependent in dependent_features(step.feature):
                dep_column = self._column_index.get(dependent)
                if dep_column is not None and dependent not in removed:
                    work[:, dep_column] /= divisor
            removed.add(step.feature)
        return work[:, self._input_columns]

    def _step_factors(self, matrix: np.ndarray, floor: float) -> np.ndarray:
        """Per-row product of the scaling-function values over the raw matrix."""
        factors = np.ones(matrix.shape[0], dtype=np.float64)
        for step in self.steps:
            column = self._column_index.get(step.feature)
            if column is None:
                values = np.zeros(matrix.shape[0], dtype=np.float64)
            else:
                values = matrix[:, column]
            scale = np.asarray(step.function(np.maximum(values, 0.0)), dtype=np.float64)
            factors *= np.maximum(scale, floor)
        return factors

    def scale_factors(self, matrix: np.ndarray) -> np.ndarray:
        """Per-row multiplicative scaling factors for a raw feature matrix."""
        return self._step_factors(np.asarray(matrix, dtype=np.float64), floor=0.0)

    # -- training ------------------------------------------------------------------------------
    def fit(self, feature_rows: list[dict[str, float]], targets: np.ndarray) -> "CombinedModel":
        """Train the underlying MART model on transformed data."""
        if not len(feature_rows):
            raise ValueError(f"{self.name}: cannot train on an empty dataset")
        targets = np.asarray(targets, dtype=np.float64)
        raw = self.feature_matrix(feature_rows)
        matrix = self.transform_matrix(raw)
        # Each target is divided by its row's scaling factors, each floored
        # at MIN_DIVISOR so a zero scaling value cannot divide by zero.
        scaled_targets = targets / self._step_factors(raw, floor=MIN_DIVISOR)
        self.model_ = MARTRegressor(self.mart_config)
        self.model_.fit(matrix, scaled_targets)
        self.n_training_rows_ = len(feature_rows)
        self._record_ranges(matrix)
        self.scaled_target_low_ = float(scaled_targets.min())
        self.scaled_target_high_ = float(scaled_targets.max())
        # Training error (used to pick the family's default model): predict in
        # batch on the already-transformed matrix and scale back up.
        predictions = np.maximum(self.model_.predict(matrix) * self.scale_factors(raw), 0.0)
        self.training_error_ = l1_relative_error(predictions, targets)
        return self

    def _record_ranges(self, matrix: np.ndarray) -> None:
        lows = matrix.min(axis=0)
        highs = matrix.max(axis=0)
        self.training_low_ = {
            name: float(lows[i]) for i, name in enumerate(self.input_features_)
        }
        self.training_high_ = {
            name: float(highs[i]) for i, name in enumerate(self.input_features_)
        }

    # -- prediction ------------------------------------------------------------------------------
    def finish_batch(self, matrix: np.ndarray, outputs: np.ndarray) -> np.ndarray:
        """Estimates from the scaled MART model's ``outputs`` for raw rows.

        For scaled models the MART output is a *per-unit* quantity (e.g. CPU
        per input tuple); it is clamped to the per-unit range observed during
        training, since the magnitude of the estimate is carried by the
        scaling function and per-unit costs outside the observed range are
        an artefact of boosting overshoot rather than a meaningful
        prediction.  The clamped output is multiplied by the scale factors
        of ``matrix`` and floored at zero.
        """
        if self.steps:
            outputs = np.clip(outputs, self.scaled_target_low_, self.scaled_target_high_)
        return np.maximum(outputs * self.scale_factors(matrix), 0.0)
