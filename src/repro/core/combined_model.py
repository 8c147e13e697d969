"""Combined models: scaling function ∘ scaled MART model (paper Section 6).

A :class:`CombinedModel` with zero scaling steps is a plain ("default-style")
MART model over the raw operator features.  With one or more scaling steps,
the underlying MART model is trained on transformed data (targets divided by
the scaling factors, scaling features removed, dependent features
normalised) and predictions are multiplied back up by the scaling factors.

Every model records the training range (low/high) of each of its *own* input
features — in its own transformed space — which is what the out_ratio model
selection heuristic compares against at estimation time.

Prediction is matrix-first: :meth:`CombinedModel.predict_batch` evaluates a
contiguous ``(n, len(feature_names))`` float64 matrix through a single
vectorised transform + MART pass + :meth:`CombinedModel.finish_batch`, and
the scalar :meth:`CombinedModel.predict` is a one-row wrapper over it, so
scalar/batch parity holds by construction.  The estimator's serving path
gets the transformed rows from model selection and the MART outputs from
one forest-bank call, and runs only :meth:`CombinedModel.finish_batch`
per model.
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
        #: clamped to it at prediction time (see ``predict``).
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

        Applies the same sequential steps as
        :func:`~repro.core.scaled_model.transform_feature_dict` — dependent
        columns divided by the scaling feature's current value, scaling
        columns removed — and returns the ``(n, len(input_features_))``
        matrix the scaled MART model consumes.
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
        # Targets are divided per-step with the same floor transform_targets
        # uses, so training stays numerically identical to the dict path.
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
    def predict_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Estimate the resource for ``n`` operator instances at once.

        ``matrix`` holds one row per instance with columns in
        ``feature_names`` order.
        """
        if self.model_ is None:
            raise RuntimeError(f"{self.name} has not been trained")
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.feature_names):
            raise ValueError(
                f"{self.name}: expected an (n, {len(self.feature_names)}) matrix, "
                f"got shape {matrix.shape}"
            )
        if matrix.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        return self.finish_batch(matrix, self.model_.predict(self.transform_matrix(matrix)))

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

    def predict(self, feature_values: dict[str, float]) -> float:
        """Estimate the resource for one operator instance.

        Thin one-row wrapper over :meth:`predict_batch`.
        """
        return float(self.predict_batch(self.feature_matrix([feature_values]))[0])

    # -- model selection support --------------------------------------------------------------------
    def out_ratio_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Per-row, per-input-feature out-of-range ratios (in transformed space).

        Each entry is the distance of the (transformed) feature value from the
        model's training interval, normalised by the interval width; 0 means
        the value was covered during training.  Features this model scales by
        are not inputs of its scaled MART model, so they never contribute.
        """
        transformed = self.transform_matrix(np.asarray(matrix, dtype=np.float64))
        n = transformed.shape[0]
        if not self.input_features_:
            return np.zeros((n, 0), dtype=np.float64)
        known = np.array(
            [name in self.training_low_ for name in self.input_features_], dtype=bool
        )
        lows = np.array(
            [self.training_low_.get(name, 0.0) for name in self.input_features_],
            dtype=np.float64,
        )
        highs = np.array(
            [self.training_high_.get(name, 0.0) for name in self.input_features_],
            dtype=np.float64,
        )
        widths = np.maximum(highs - lows, 1e-9)
        ratios = (
            np.maximum(lows - transformed, 0.0) + np.maximum(transformed - highs, 0.0)
        ) / widths
        ratios[:, ~known] = 0.0
        return ratios

    def out_ratio_profiles(self, matrix: np.ndarray) -> np.ndarray:
        """Per-row out_ratios sorted descending along axis 1 (for tie-breaking)."""
        return np.sort(self.out_ratio_matrix(matrix), axis=1)[:, ::-1]

    def out_ratio(self, feature_values: dict[str, float], feature: str) -> float:
        """How far outside the training range ``feature`` falls for this model."""
        if feature not in self.training_low_:
            return 0.0
        row = self.feature_matrix([feature_values])
        return float(self.out_ratio_matrix(row)[0, self.input_features_.index(feature)])

    def out_ratio_profile(self, feature_values: dict[str, float]) -> list[float]:
        """All per-feature out_ratios, sorted descending (for tie-breaking)."""
        return [float(v) for v in self.out_ratio_profiles(self.feature_matrix([feature_values]))[0]]

    def max_out_ratio(self, feature_values: dict[str, float]) -> float:
        profile = self.out_ratio_profile(feature_values)
        return profile[0] if profile else 0.0
