"""Off-line model training (paper Section 6, Figure 5).

For every (operator family, resource) pair the trainer fits

* one *plain* MART model over the family's full feature set, and
* one *combined* model per scalable ("outlier-able") feature, plus a small
  number of two-feature combinations (the paper scales by at most two
  features to keep the number of stored models manageable),

and then designates as the family's **default model** the trained model with
the lowest error on the training set (the paper notes the default may
already incorporate scaling).  The result is an :class:`OperatorModelSet`
which, together with the online out_ratio selection over its
:class:`~repro.core.model_selection.SelectionTables`, fully determines how
an operator instance is estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.combined_model import CombinedModel
from repro.core.model_selection import BatchSelection, SelectionTables
from repro.core.scaled_model import ScalingStep
from repro.core.scaling import default_scaling_function
from repro.features.definitions import (
    OperatorFamily,
    features_for_family,
    scalable_features,
)
from repro.ml.mart import MARTConfig

__all__ = ["TrainerConfig", "FamilyTrainingData", "OperatorModelSet", "ScalingModelTrainer"]


@dataclass(frozen=True)
class TrainerConfig:
    """Configuration of the off-line training pipeline."""

    #: Hyper-parameters of every underlying MART model.
    mart: MARTConfig = field(default_factory=MARTConfig)
    #: Minimum number of training rows required to fit models for a family.
    min_training_rows: int = 20
    #: Upper bound on the number of two-feature combined models per family.
    max_pair_models: int = 3
    #: Whether to train two-feature combined models at all.
    enable_pair_scaling: bool = True


@dataclass
class FamilyTrainingData:
    """Training rows of one operator family.

    ``feature_rows[i]`` holds the feature dictionary of the i-th observed
    operator instance and ``targets[resource][i]`` its observed resource
    usage.
    """

    family: OperatorFamily
    feature_rows: list[dict[str, float]] = field(default_factory=list)
    targets: dict[str, list[float]] = field(default_factory=dict)

    def add(self, feature_values: dict[str, float], observed: dict[str, float]) -> None:
        self.feature_rows.append(feature_values)
        for resource, value in observed.items():
            self.targets.setdefault(resource, []).append(float(value))

    def target_array(self, resource: str) -> np.ndarray:
        return np.asarray(self.targets.get(resource, []), dtype=np.float64)

    @property
    def n_rows(self) -> int:
        return len(self.feature_rows)


@dataclass
class OperatorModelSet:
    """All trained models for one (family, resource) pair."""

    family: OperatorFamily
    resource: str
    models: list[CombinedModel]
    default_model: CombinedModel
    _tables: SelectionTables | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def selection_tables(self) -> SelectionTables:
        """The selection tables of ``models`` and ``default_model``.

        Built on first use and rebuilt whenever either attribute is
        reassigned (or ``models`` changes in place), so a set whose default
        is repointed after construction selects over its current models.
        """
        tables = self._tables
        if tables is None or not tables.serves(self.default_model, self.models):
            tables = SelectionTables(self.default_model, self.models)
            self._tables = tables
        return tables

    def select_batch(self, matrix: np.ndarray) -> BatchSelection:
        """Vectorised model selection for every row of a raw feature matrix."""
        return self.selection_tables().select(matrix)

    def finish_batch(
        self, matrix: np.ndarray, selection: BatchSelection, outputs: np.ndarray
    ) -> np.ndarray:
        """Estimates for the rows of ``matrix`` from their models' raw outputs.

        ``selection`` is :meth:`select_batch` of ``matrix`` and ``outputs[i]``
        the MART output of row ``i``'s chosen candidate on
        ``selection.inputs[i]``; each chosen candidate clips and scales its
        own rows (:meth:`CombinedModel.finish_batch`).
        """
        estimates = np.zeros(matrix.shape[0], dtype=np.float64)
        for index in np.unique(selection.indices):
            mask = selection.indices == index
            estimates[mask] = selection.candidates[index].finish_batch(
                matrix[mask], outputs[mask]
            )
        return estimates

    @property
    def n_models(self) -> int:
        return len(self.models)


class ScalingModelTrainer:
    """Trains the per-family model sets of the SCALING technique."""

    #: Preferred two-feature scaling combinations per family.  Pairs listed
    #: first are tried first; only pairs whose features are both scalable for
    #: the family/resource are used.
    _PAIR_PREFERENCES: dict[OperatorFamily, tuple[tuple[str, str], ...]] = {
        OperatorFamily.SCAN: (("TSIZE", "SOUTAVG"), ("CIN1", "SINAVG1")),
        OperatorFamily.SEEK: (("TSIZE", "SOUTAVG"), ("COUT", "SOUTAVG")),
        OperatorFamily.FILTER: (("CIN1", "SINAVG1"), ("CIN1", "COUT")),
        OperatorFamily.SORT: (("CIN1", "SINAVG1"), ("CIN1", "SOUTAVG")),
        OperatorFamily.HASH_JOIN: (("CIN1", "CIN2"), ("CIN1", "SINAVG1")),
        OperatorFamily.MERGE_JOIN: (("CIN1", "CIN2"), ("CIN1", "SINAVG1")),
        OperatorFamily.NESTED_LOOP_JOIN: (("CIN1", "SSEEKTABLE"), ("CIN1", "COUT")),
        OperatorFamily.HASH_AGGREGATE: (("CIN1", "SINAVG1"), ("CIN1", "COUT")),
        OperatorFamily.STREAM_AGGREGATE: (("CIN1", "SINAVG1"),),
        OperatorFamily.COMPUTE_SCALAR: (("CIN1", "SINAVG1"),),
        OperatorFamily.TOP: (("CIN1", "SINAVG1"),),
    }

    def __init__(self, config: TrainerConfig | None = None) -> None:
        self.config = config or TrainerConfig()

    # -- public API ----------------------------------------------------------------------------
    def train_family(
        self, data: FamilyTrainingData, resource: str
    ) -> OperatorModelSet | None:
        """Train all models of one family for one resource.

        Returns ``None`` when the family has too few training rows (the
        estimator then falls back to a neighbour-free default, see
        :class:`~repro.core.estimator.ResourceEstimator`).
        """
        targets = data.target_array(resource)
        if data.n_rows < self.config.min_training_rows or targets.size != data.n_rows:
            return None
        feature_names = features_for_family(data.family)
        models: list[CombinedModel] = []

        plain = CombinedModel(
            family=data.family,
            resource=resource,
            feature_names=feature_names,
            steps=(),
            mart_config=self.config.mart,
        )
        plain.fit(data.feature_rows, targets)
        models.append(plain)

        for steps in self._candidate_steps(data, resource):
            model = CombinedModel(
                family=data.family,
                resource=resource,
                feature_names=feature_names,
                steps=steps,
                mart_config=self.config.mart,
            )
            model.fit(data.feature_rows, targets)
            models.append(model)

        default_model = min(models, key=lambda m: (m.training_error_, m.n_scaling_features))
        return OperatorModelSet(
            family=data.family,
            resource=resource,
            models=models,
            default_model=default_model,
        )

    # -- candidate generation ---------------------------------------------------------------------
    def _candidate_steps(
        self, data: FamilyTrainingData, resource: str
    ) -> list[tuple[ScalingStep, ...]]:
        """Scaling-step combinations to train for a family/resource."""
        family = data.family
        usable = [
            feature
            for feature in scalable_features(family, resource)
            if self._feature_varies(data, feature)
        ]
        candidates: list[tuple[ScalingStep, ...]] = [
            (self._step(family, feature, resource),) for feature in usable
        ]
        if self.config.enable_pair_scaling:
            pairs_added = 0
            for first, second in self._PAIR_PREFERENCES.get(family, ()):
                if pairs_added >= self.config.max_pair_models:
                    break
                if first in usable and second in usable:
                    candidates.append(
                        (
                            self._step(family, first, resource),
                            self._step(family, second, resource),
                        )
                    )
                    pairs_added += 1
        return candidates

    def _step(self, family: OperatorFamily, feature: str, resource: str) -> ScalingStep:
        return ScalingStep(
            feature=feature, function=default_scaling_function(family, feature, resource)
        )

    @staticmethod
    def _feature_varies(data: FamilyTrainingData, feature: str) -> bool:
        """Only features that vary in training are worth scaling by."""
        values = [row.get(feature, 0.0) for row in data.feature_rows]
        if not values:
            return False
        return (max(values) - min(values)) > 1e-9 and max(values) > 0
