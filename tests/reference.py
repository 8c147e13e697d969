"""The per-model estimation path, kept as the reference the tests compare against.

The estimator serves every operator through one path: model selection over
a set's :class:`~repro.core.model_selection.SelectionTables`, one
:class:`~repro.ml.flat_ensemble.ForestBank` call for every selected model,
then each chosen candidate's
:meth:`~repro.core.combined_model.CombinedModel.finish_batch`.  The
functions here compute the same results one model at a time, the slow and
obvious way, so the parity suites can pin the two together bit for bit:

* :func:`model_set_predict_batch` selects a model per row, evaluates each
  chosen candidate over the rows it won (:func:`combined_predict_batch`)
  and scatters the results back into row order;
* :func:`combined_predict_batch` transforms the rows, runs
  ``MARTRegressor.predict`` and finishes them;
* :func:`out_ratio_matrix` and :func:`out_ratio_profiles` are one
  candidate's out_ratios (Section 6.3), which the selection reference in
  ``test_model_selection.py`` is built on;
* :func:`transform_feature_dict` and :func:`transform_targets` are the
  Section 6.1 training-data transformation over feature dictionaries, the
  specification of the vectorised ``CombinedModel.transform_matrix`` and
  of the target scaling in ``CombinedModel.fit``.
"""

from __future__ import annotations

import numpy as np

from repro.core.combined_model import CombinedModel
from repro.core.scaled_model import MIN_DIVISOR, ScalingStep
from repro.core.trainer import OperatorModelSet
from repro.features.dependencies import dependent_features


# -- model-set and combined-model estimates --------------------------------------------


def model_set_predict_batch(model_set: OperatorModelSet, matrix: np.ndarray) -> np.ndarray:
    """Estimate the resource for every row of a raw feature matrix.

    Selects a model per row in one vectorised pass, then runs one MART
    evaluation per *chosen model* over the contiguous sub-matrix of the
    rows it won, scattering results back into row order.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    selection = model_set.select_batch(matrix)
    estimates = np.zeros(matrix.shape[0], dtype=np.float64)
    for index in np.unique(selection.indices):
        mask = selection.indices == index
        estimates[mask] = combined_predict_batch(selection.candidates[index], matrix[mask])
    return estimates


def combined_predict_batch(model: CombinedModel, matrix: np.ndarray) -> np.ndarray:
    """Estimate the resource for ``n`` operator instances at once.

    ``matrix`` holds one row per instance with columns in
    ``feature_names`` order.
    """
    if model.model_ is None:
        raise RuntimeError(f"{model.name} has not been trained")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(model.feature_names):
        raise ValueError(
            f"{model.name}: expected an (n, {len(model.feature_names)}) matrix, "
            f"got shape {matrix.shape}"
        )
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    return model.finish_batch(matrix, model.model_.predict(model.transform_matrix(matrix)))


# -- out_ratios ------------------------------------------------------------------------


def out_ratio_matrix(model: CombinedModel, matrix: np.ndarray) -> np.ndarray:
    """Per-row, per-input-feature out-of-range ratios (in transformed space).

    Each entry is the distance of the (transformed) feature value from the
    model's training interval, normalised by the interval width; 0 means
    the value was covered during training.  Features this model scales by
    are not inputs of its scaled MART model, so they never contribute.
    """
    transformed = model.transform_matrix(np.asarray(matrix, dtype=np.float64))
    n = transformed.shape[0]
    if not model.input_features_:
        return np.zeros((n, 0), dtype=np.float64)
    known = np.array(
        [name in model.training_low_ for name in model.input_features_], dtype=bool
    )
    lows = np.array(
        [model.training_low_.get(name, 0.0) for name in model.input_features_],
        dtype=np.float64,
    )
    highs = np.array(
        [model.training_high_.get(name, 0.0) for name in model.input_features_],
        dtype=np.float64,
    )
    widths = np.maximum(highs - lows, 1e-9)
    ratios = (
        np.maximum(lows - transformed, 0.0) + np.maximum(transformed - highs, 0.0)
    ) / widths
    ratios[:, ~known] = 0.0
    return ratios


def out_ratio_profiles(model: CombinedModel, matrix: np.ndarray) -> np.ndarray:
    """Per-row out_ratios sorted descending along axis 1 (for tie-breaking)."""
    return np.sort(out_ratio_matrix(model, matrix), axis=1)[:, ::-1]


# -- the Section 6.1 transformation over feature dictionaries --------------------------


def scale_value(step: ScalingStep, feature_value: float) -> float:
    """The multiplicative factor ``g(F̂)`` contributed by ``step``."""
    return float(step.function(max(feature_value, 0.0)))


def transform_feature_dict(
    values: dict[str, float], steps: tuple[ScalingStep, ...]
) -> dict[str, float]:
    """Apply scaling-feature removal and dependent-feature normalisation.

    Returns a new dictionary with the scaling features removed and every
    dependent feature divided by the raw value of its scaling feature.  The
    input dictionary is not modified.
    """
    transformed = dict(values)
    for step in steps:
        raw = transformed.get(step.feature, values.get(step.feature, 0.0))
        divisor = max(abs(raw), MIN_DIVISOR)
        for dependent in dependent_features(step.feature):
            if dependent in transformed:
                transformed[dependent] = transformed[dependent] / divisor
        transformed.pop(step.feature, None)
    return transformed


def transform_targets(
    feature_rows: list[dict[str, float]],
    targets: np.ndarray,
    steps: tuple[ScalingStep, ...],
) -> np.ndarray:
    """Divide each target by the product of the scaling factors of its row."""
    targets = np.asarray(targets, dtype=np.float64)
    if not steps:
        return targets.copy()
    scaled = targets.copy()
    for i, row in enumerate(feature_rows):
        factor = 1.0
        for step in steps:
            factor *= max(scale_value(step, row.get(step.feature, 0.0)), MIN_DIVISOR)
        scaled[i] = targets[i] / factor
    return scaled
