"""The on-line resource estimator (the SCALING technique's public API).

A trained :class:`ResourceEstimator` maps an annotated query plan to
estimates of its CPU time and logical I/O at three granularities: per
operator, per pipeline and per query.

Estimation is batched end to end through one path.  Each plan's features
are extracted into a ``{node_id: OperatorFeatures}`` mapping
(:meth:`ResourceEstimator.extract_plan_features`); the mappings are grouped
by operator family into contiguous float64 matrices
(:func:`~repro.features.extractor.group_by_family`); each
``(family, resource)`` group runs one vectorised model selection, which
also yields every row's transformed input; every selected model of every
group is then evaluated in *one* ragged kernel call over a
:class:`~repro.ml.flat_ensemble.ForestBank` holding all candidate forests
of the estimator; each group finishes (clip, scale, floor) and guards its
own rows; and the results are scattered into one ``{node_id: estimate}``
dict per plan whose keys follow the plan's own pre-order.  Model evaluation
is row-independent and every sum over a plan's operators runs in that fixed
order, so a plan's per-operator, per-pipeline and per-query estimates are
the same bits whether it is estimated alone, through the scalar methods or
inside any batch.  The batched path makes the paper's observation that
prediction overhead is negligible next to query optimisation (Section 7.3)
hold for whole workloads, not just single calls.

The bank is derived state: built on first use from the model sets, keyed
by each set's current selection tables (which it holds, so a recycled
``id()`` cannot alias), rebuilt when a set or its tables change, published
with one assignment and never persisted.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.model_selection import BatchSelection, SelectionTables
from repro.core.scaling import fit_robust_scaling
from repro.core.trainer import (
    FamilyTrainingData,
    OperatorModelSet,
    ScalingModelTrainer,
    TrainerConfig,
)
from repro.robustness.degradation import (
    DegradationReport,
    DegradationTier,
    DegradedOperator,
    ScalingFallback,
)
from repro.robustness.envelope import FeatureEnvelope
from repro.features.definitions import (
    FeatureMode,
    OperatorFamily,
    features_for_family,
    operator_family,
)
from repro.features.extractor import (
    FamilyRows,
    FeatureExtractor,
    OperatorFeatures,
    family_matrix,
    group_by_family,
)
from repro.ml.flat_ensemble import ForestBank
from repro.plan.operators import PlanOperator
from repro.plan.plan import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.protocol import TrainingCorpus

__all__ = ["ResourceEstimator", "WorkloadEstimate"]

_LOGGER = logging.getLogger("repro.core.estimator")

#: The resources the library models, as in the paper.
DEFAULT_RESOURCES: tuple[str, ...] = ("cpu", "io")

#: What a model set's selection or finishing step may raise; with
#: guardrails the group's rows degrade (``model-error``) instead.
_MODEL_ERRORS = (ValueError, ArithmeticError, RuntimeError)

#: Serialises bank builds, so concurrent first calls build one bank.
_BANK_BUILD_LOCK = threading.Lock()

#: Per group: (predictions, tiers or None without guardrails, reasons).
_Served = tuple[np.ndarray, "np.ndarray | None", dict[int, str]]


class _ModelBank:
    """Every candidate forest of some model sets in one :class:`ForestBank`.

    Bank model ids run set by set: ``base[id(tables)]`` is the id of the
    first candidate of the set whose selection ran over ``tables``.  The
    tables are held, so no key is the recycled ``id()`` of a dead object.
    """

    def __init__(self, tables: Sequence[SelectionTables]) -> None:
        self.tables = tuple(tables)
        self.base: dict[int, int] = {}
        models = []
        for table in self.tables:
            self.base[id(table)] = len(models)
            for candidate in table.candidates:
                if candidate.model_ is None:
                    raise RuntimeError(f"{candidate.name} has not been trained")
                models.append((candidate.model_, candidate.input_columns))
        self.forests = ForestBank(models)

    def holds(self, tables: Sequence[SelectionTables]) -> bool:
        return all(id(table) in self.base for table in tables)

    def predict(self, selections: Sequence[BatchSelection]) -> list[np.ndarray]:
        """Each selected row's raw model output, in one kernel call."""
        return self.forests.predict(
            [(s.inputs, self.base[id(s.tables)] + s.indices) for s in selections]
        )


@dataclass
class _FallbackModel:
    """Last-resort estimate for operator families unseen during training.

    Predicts the median per-output-tuple resource usage observed across all
    training operators, multiplied by the instance's output cardinality.
    This keeps cross-workload experiments well-defined even if a plan uses
    an operator type that never appeared in the training workload.
    """

    per_tuple: float

    def predict_batch(self, cout: np.ndarray, cin1: np.ndarray) -> np.ndarray:
        rows = np.maximum(
            np.asarray(cout, dtype=np.float64), np.asarray(cin1, dtype=np.float64)
        )
        return np.maximum(self.per_tuple * rows, 0.0)


@dataclass
class WorkloadEstimate:
    """Batched resource estimates for a list of plans, at all granularities."""

    plans: list[QueryPlan]
    resources: tuple[str, ...]
    #: resource -> one ``{node_id: estimate}`` dictionary per plan.
    operator_estimates: dict[str, list[dict[int, float]]]
    #: Which fallback tier served each (plan, resource); ``None`` only when
    #: the estimate was produced with ``guardrails=False``.
    degradation: DegradationReport | None = None

    @property
    def n_plans(self) -> int:
        return len(self.plans)

    def operators(self, plan_index: int, resource: str) -> dict[int, float]:
        """Per-operator estimates of one plan, keyed by operator node id."""
        return self._per_plan(resource)[plan_index]

    def pipelines(self, plan_index: int, resource: str) -> dict[int, float]:
        """Per-pipeline estimates of one plan (the Section 5.2 granularity)."""
        per_operator = self.operators(plan_index, resource)
        return {
            pipeline.index: float(
                sum(per_operator[op.node_id] for op in pipeline.operators)
            )
            for pipeline in self.plans[plan_index].pipelines()
        }

    def query(self, plan_index: int, resource: str) -> float:
        """Query-level estimate of one plan (sum over its operators)."""
        return float(sum(self.operators(plan_index, resource).values()))

    def query_totals(self, resource: str) -> np.ndarray:
        """Query-level estimates for every plan, in input order."""
        per_plan = self._per_plan(resource)
        return np.array(
            [sum(estimates.values()) for estimates in per_plan], dtype=np.float64
        )

    def _per_plan(self, resource: str) -> list[dict[int, float]]:
        try:
            return self.operator_estimates[resource]
        except KeyError:
            raise ValueError(
                f"unknown resource {resource!r}; this estimate covers {self.resources}"
            ) from None


@dataclass
class ResourceEstimator:
    """Operator-level resource estimation with MART + scaling models.

    The class satisfies the :class:`repro.api.Estimator` protocol directly:
    :meth:`fit` trains from a training corpus (or pre-built family data),
    :meth:`predict_batch` produces query-level totals for a list of plans,
    and :meth:`save` / :meth:`load` round-trip the trained model through the
    versioned artifact codec in :mod:`repro.core.serialization`.
    """

    feature_mode: FeatureMode = FeatureMode.EXACT
    model_sets: dict[tuple[OperatorFamily, str], OperatorModelSet] = field(default_factory=dict)
    fallbacks: dict[str, _FallbackModel] = field(default_factory=dict)
    resources: tuple[str, ...] = DEFAULT_RESOURCES
    #: Training configuration used by :meth:`fit`; persisted with the model.
    trainer_config: TrainerConfig | None = None
    #: Per-family training-feature envelopes recorded at fit time; drive OOD
    #: detection (:class:`~repro.robustness.validation.PlanValidator`) and
    #: the artifact canary checks.  Empty for hand-built estimators.
    envelopes: dict[OperatorFamily, FeatureEnvelope] = field(default_factory=dict)
    #: Median per-tuple rate per (family, resource) — the FAMILY_RATE tier.
    family_rates: dict[tuple[OperatorFamily, str], float] = field(default_factory=dict)
    #: Fitted ``alpha · g(cardinality)`` curves — the SCALING tier.
    scaling_fallbacks: dict[tuple[OperatorFamily, str], ScalingFallback] = field(
        default_factory=dict
    )

    #: Display name under the unified Estimator protocol (not a dataclass field).
    name = "SCALING"

    def __post_init__(self) -> None:
        self._extractor = FeatureExtractor(self.feature_mode)
        self._bank: _ModelBank | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_bank"] = None  # derived from the model sets; rebuilt on first use
        return state

    # -- training -----------------------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        training_data: dict[OperatorFamily, FamilyTrainingData],
        feature_mode: FeatureMode = FeatureMode.EXACT,
        resources: tuple[str, ...] = DEFAULT_RESOURCES,
        config: TrainerConfig | None = None,
    ) -> "ResourceEstimator":
        """Train model sets for every operator family present in the data.

        ``training_data`` is produced by
        :func:`repro.workloads.datasets.build_training_data`; the feature
        dictionaries it contains must have been extracted with the same
        ``feature_mode`` that will be used at estimation time.
        """
        trainer = ScalingModelTrainer(config)
        estimator = cls(feature_mode=feature_mode, resources=resources, trainer_config=config)
        for family, data in training_data.items():
            if data.feature_rows:
                estimator.envelopes[family] = FeatureEnvelope.fit(
                    family, family_matrix(family, data.feature_rows)
                )
        for resource in resources:
            per_tuple_rates: list[float] = []
            for family, data in training_data.items():
                model_set = trainer.train_family(data, resource)
                if model_set is not None:
                    estimator.model_sets[(family, resource)] = model_set
                targets = data.target_array(resource)
                family_rates: list[float] = []
                cardinalities: list[float] = []
                for row, value in zip(data.feature_rows, targets):
                    rows = max(row.get("COUT", 0.0), row.get("CIN1", 0.0), 1.0)
                    per_tuple_rates.append(value / rows)
                    family_rates.append(value / rows)
                    cardinalities.append(max(row.get("COUT", 0.0), row.get("CIN1", 0.0)))
                if family_rates:
                    estimator.family_rates[(family, resource)] = float(
                        np.median(family_rates)
                    )
                fitted = fit_robust_scaling(
                    np.asarray(cardinalities, dtype=np.float64),
                    np.asarray(targets, dtype=np.float64),
                )
                if fitted is not None:
                    estimator.scaling_fallbacks[(family, resource)] = (
                        ScalingFallback.from_fitted(fitted)
                    )
            estimator.fallbacks[resource] = _FallbackModel(
                per_tuple=float(np.median(per_tuple_rates)) if per_tuple_rates else 0.0,
            )
        return estimator

    def fit(
        self,
        training_data: "TrainingCorpus | dict[OperatorFamily, FamilyTrainingData]",
    ) -> "ResourceEstimator":
        """Train this estimator in place (the unified Estimator protocol).

        ``training_data`` is either a :class:`repro.api.TrainingCorpus`-like
        object (anything exposing ``queries``, ``mode`` and ``resources``) or
        the pre-built ``{family: FamilyTrainingData}`` dictionary consumed by
        :meth:`train`.  A corpus overrides the instance's feature mode and
        resource tuple; a raw dictionary keeps them.
        """
        if isinstance(training_data, dict):
            family_data = training_data
            mode, resources = self.feature_mode, self.resources
        else:
            from repro.workloads.datasets import build_training_data

            mode = training_data.mode
            resources = tuple(training_data.resources)
            family_data = build_training_data(list(training_data.queries), mode)
        trained = ResourceEstimator.train(
            family_data, feature_mode=mode, resources=resources, config=self.trainer_config
        )
        self.feature_mode = trained.feature_mode
        self.resources = trained.resources
        self.model_sets = trained.model_sets
        self.fallbacks = trained.fallbacks
        self.envelopes = trained.envelopes
        self.family_rates = trained.family_rates
        self.scaling_fallbacks = trained.scaling_fallbacks
        self._extractor = FeatureExtractor(self.feature_mode)
        self._bank = None
        return self

    # -- persistence ---------------------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trained model to ``path`` as a versioned artifact."""
        from repro.core.serialization import save_estimator

        save_estimator(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "ResourceEstimator":
        """Load an artifact written by :meth:`save` (strict on version/corruption)."""
        from repro.core.serialization import load_estimator

        return load_estimator(path)

    # -- batched estimation --------------------------------------------------------------------------
    def estimate_workload(
        self,
        plans: Iterable[QueryPlan],
        resources: Sequence[str] | None = None,
        *,
        guardrails: bool = True,
        ood_threshold: float | None = None,
    ) -> WorkloadEstimate:
        """Batch-estimate a whole workload of plans in one pass.

        Extracts every plan through :meth:`extract_plan_features` and
        estimates the result with :meth:`estimate_extracted_workload`.
        """
        plans = list(plans)
        return self.estimate_extracted_workload(
            plans,
            [self.extract_plan_features(plan) for plan in plans],
            resources,
            guardrails=guardrails,
            ood_threshold=ood_threshold,
        )

    def estimate_extracted_workload(
        self,
        plans: Sequence[QueryPlan],
        extracted: Sequence[Mapping[int, OperatorFeatures]],
        resources: Sequence[str] | None = None,
        *,
        guardrails: bool = True,
        ood_threshold: float | None = None,
    ) -> WorkloadEstimate:
        """Batch-estimate plans whose features are already extracted.

        ``extracted[i]`` is the :meth:`extract_plan_features` result of
        ``plans[i]``.  This is the one batched path: :meth:`estimate_workload`
        and the serving layer's cached extraction both end here.  Operator
        rows are grouped by family, every ``(family, resource)`` group is
        served by :meth:`_serve_groups` (one kernel call for all of them),
        and plan ``i``'s estimates are keyed in the order of
        ``extracted[i]`` (the plan's pre-order).

        With ``guardrails`` on (the default), rows the MART models cannot
        serve — non-finite features, a raising model, non-finite or negative
        predictions — are re-estimated down the fallback ladder
        (:class:`~repro.robustness.degradation.DegradationTier`), and the
        returned estimate carries a
        :class:`~repro.robustness.degradation.DegradationReport`.  On clean
        inputs the guarded path returns bit-identical numbers to
        ``guardrails=False``.  ``ood_threshold`` additionally flags plans
        whose features lie outside the training envelopes by more than that
        many training-ranges.
        """
        resources = tuple(resources) if resources is not None else self.resources
        for resource in resources:
            self._check_resource(resource)
        family_rows = group_by_family(extracted)
        owners = {
            family: list(zip(rows.plan_indices.tolist(), rows.node_ids.tolist()))
            for family, rows in family_rows.items()
        }
        operator_estimates: dict[str, list[dict[int, float]]] = {
            resource: [dict.fromkeys(plan_features, 0.0) for plan_features in extracted]
            for resource in resources
        }
        groups = [
            (family, resource, rows.matrix)
            for resource in resources
            for family, rows in family_rows.items()
        ]
        entries: list[DegradedOperator] = []
        for (family, resource, _), (predictions, tiers, reasons) in zip(
            groups, self._serve_groups(groups, guardrails)
        ):
            for row_index, reason in reasons.items():
                plan_index, node_id = owners[family][row_index]
                entries.append(
                    DegradedOperator(
                        plan_index=plan_index,
                        node_id=node_id,
                        resource=resource,
                        tier=DegradationTier(int(tiers[row_index])),
                        reason=reason,
                    )
                )
            per_plan = operator_estimates[resource]
            for (plan_index, node_id), value in zip(owners[family], predictions):
                per_plan[plan_index][node_id] = float(value)
        degradation = None
        if guardrails:
            degradation = DegradationReport(
                entries=tuple(entries),
                ood_plans=self._flag_ood_plans(family_rows, ood_threshold),
            )
        return WorkloadEstimate(
            plans=list(plans),
            resources=resources,
            operator_estimates=operator_estimates,
            degradation=degradation,
        )

    def predict_batch(self, plans: Sequence[Any], resource: str = "cpu") -> np.ndarray:
        """Query-level totals for a list of plans (the Estimator protocol).

        Accepts :class:`~repro.plan.plan.QueryPlan` objects or anything
        exposing a ``plan`` attribute (e.g. observed queries), so the same
        call shape works for the experiment harness and for serving.
        """
        resolved = [plan.plan if hasattr(plan, "plan") else plan for plan in plans]
        return self.estimate_workload(resolved, (resource,)).query_totals(resource)

    def estimate_feature_rows(
        self,
        family: OperatorFamily,
        feature_rows: Sequence[dict[str, float]],
        resource: str = "cpu",
    ) -> np.ndarray:
        """Batch-estimate already-extracted feature dictionaries of one family."""
        return self.estimate_family_matrix(family, family_matrix(family, feature_rows), resource)

    def estimate_family_matrix(
        self, family: OperatorFamily, matrix: np.ndarray, resource: str = "cpu"
    ) -> np.ndarray:
        """Batch-estimate raw feature rows of one family (canonical column order).

        Unguarded: what the model set raises propagates, and non-finite or
        negative model outputs are returned as they are.
        """
        self._check_resource(resource)
        group = (family, resource, np.asarray(matrix, dtype=np.float64))
        predictions, _, _ = self._serve_groups([group], guardrails=False)[0]
        return predictions

    def extract_plan_features(self, plan: QueryPlan) -> dict[int, OperatorFeatures]:
        """Per-operator feature vectors of a plan, in this estimator's mode.

        Keys follow the plan's pre-order.  Public so serving layers (e.g.
        the :class:`~repro.api.EstimationService`) can cache extraction
        results per plan and feed them back through
        :meth:`estimate_extracted_workload`.
        """
        return self._extractor.extract_plan(plan)

    # -- scalar estimation (one-row wrappers over the batch path) ------------------------------------
    def estimate_operator(
        self,
        operator: PlanOperator,
        parent: PlanOperator | None = None,
        resource: str = "cpu",
    ) -> float:
        """Estimate one operator instance."""
        features = self._extractor.extract_operator(operator, parent)
        return self._estimate_features(features.family, features.values, resource)

    def estimate_plan(self, plan: QueryPlan, resource: str = "cpu") -> float:
        """Estimate the total resource usage of a plan (sum over operators)."""
        per_operator = self.estimate_operators(plan, resource)
        return float(sum(per_operator.values()))

    def estimate_operators(self, plan: QueryPlan, resource: str = "cpu") -> dict[int, float]:
        """Per-operator estimates for a plan, keyed by operator node id."""
        features = self._extractor.extract_plan(plan)
        estimates: dict[int, float] = {}
        for op in plan.operators():
            op_features = features[op.node_id]
            estimates[op.node_id] = self._estimate_features(
                op_features.family, op_features.values, resource
            )
        return estimates

    def estimate_pipelines(self, plan: QueryPlan, resource: str = "cpu") -> dict[int, float]:
        """Per-pipeline estimates (the scheduling granularity of Section 5.2)."""
        per_operator = self.estimate_operators(plan, resource)
        totals: dict[int, float] = {}
        for pipeline in plan.pipelines():
            totals[pipeline.index] = float(
                sum(per_operator[op.node_id] for op in pipeline.operators)
            )
        return totals

    def estimate_query(self, plan: QueryPlan, resource: str = "cpu") -> float:
        """Alias of :meth:`estimate_plan` (query-level granularity)."""
        return self.estimate_plan(plan, resource)

    # -- internals --------------------------------------------------------------------------------------
    def _serve_groups(
        self,
        groups: Sequence[tuple[OperatorFamily, str, np.ndarray]],
        guardrails: bool,
    ) -> list[_Served]:
        """Serve ``(family, resource, raw rows)`` groups through the models.

        The rows each group's model set can serve (with guardrails, its
        finite rows) go through :meth:`_model_outputs`: selection per group,
        one kernel call for all of them, finishing per group.  Then each
        group is guarded (:meth:`_guard_rows`) or, without guardrails,
        raises what its model set raised.  Groups without a model set are
        served by the global fallback.
        """
        sets = [self.model_sets.get((family, resource)) for family, resource, _ in groups]
        finite = [
            np.isfinite(matrix).all(axis=1) if guardrails and model_set is not None else None
            for (_, _, matrix), model_set in zip(groups, sets)
        ]
        outputs = iter(
            self._model_outputs(
                [
                    (model_set, matrix if mask is None or mask.all() else matrix[mask])
                    for (_, _, matrix), model_set, mask in zip(groups, sets, finite)
                    if model_set is not None
                ]
            )
        )
        served: list[_Served] = []
        for (family, resource, matrix), model_set, mask in zip(groups, sets, finite):
            if model_set is None:
                served.append(self._unmodelled_rows(family, resource, matrix, guardrails))
                continue
            output = next(outputs)
            if mask is not None:
                served.append(self._guard_rows(family, resource, matrix, mask, output))
            elif isinstance(output, Exception):
                raise output
            else:
                served.append((output, None, {}))
        return served

    def _model_outputs(
        self, requests: Sequence[tuple[OperatorModelSet, np.ndarray]]
    ) -> list[np.ndarray | Exception]:
        """Model-set estimates for ``(model set, raw rows)`` requests.

        Selects per request, evaluates every selected row in one bank call
        and finishes per request.  A request whose selection or finishing
        raises gets the exception in place of its estimates.
        """
        selections: list[BatchSelection | Exception] = []
        for model_set, matrix in requests:
            try:
                selections.append(model_set.select_batch(matrix))
            except _MODEL_ERRORS as exc:
                selections.append(exc)
        selected = [s for s in selections if isinstance(s, BatchSelection)]
        raw = iter(
            self._model_bank([s.tables for s in selected]).predict(selected) if selected else ()
        )
        outputs: list[np.ndarray | Exception] = []
        for (model_set, matrix), selection in zip(requests, selections):
            if isinstance(selection, Exception):
                outputs.append(selection)
                continue
            try:
                outputs.append(model_set.finish_batch(matrix, selection, next(raw)))
            except _MODEL_ERRORS as exc:
                outputs.append(exc)
        return outputs

    def _model_bank(self, tables: Sequence[SelectionTables]) -> _ModelBank:
        """The published bank if it holds ``tables``, else a new one that does.

        A new bank holds every current model set's tables plus ``tables``
        (a set replaced while this call ran keeps serving the call that
        selected with it) and is published with one assignment.
        """
        bank = self._bank
        if bank is not None and bank.holds(tables):
            return bank
        with _BANK_BUILD_LOCK:
            bank = self._bank
            if bank is not None and bank.holds(tables):
                return bank
            current = [model_set.selection_tables() for model_set in list(self.model_sets.values())]
            held = {id(table) for table in current}
            bank = _ModelBank([*current, *(t for t in tables if id(t) not in held)])
            self._bank = bank
        return bank

    def _unmodelled_rows(
        self, family: OperatorFamily, resource: str, matrix: np.ndarray, guardrails: bool
    ) -> _Served:
        """Rows of a family without a model set: the global fallback serves them.

        With guardrails the rows are recorded as ``no-model-set``
        (``GLOBAL_DEFAULT``) and non-finite fallback outputs become zero.
        """
        n = int(matrix.shape[0])
        names = features_for_family(family)
        fallback = self.fallbacks.get(resource)
        if fallback is None:
            predictions = np.zeros(n, dtype=np.float64)
        else:
            predictions = fallback.predict_batch(
                matrix[:, names.index("COUT")], matrix[:, names.index("CIN1")]
            )
        if not guardrails:
            return predictions, None, {}
        predictions = np.where(np.isfinite(predictions), predictions, 0.0)
        tiers = np.full(n, int(DegradationTier.GLOBAL_DEFAULT), dtype=np.int64)
        return predictions, tiers, dict.fromkeys(range(n), "no-model-set")

    def _guard_rows(
        self,
        family: OperatorFamily,
        resource: str,
        matrix: np.ndarray,
        finite: np.ndarray,
        output: np.ndarray | Exception,
    ) -> _Served:
        """Guard one group: rows its model set could not serve degrade.

        ``finite`` marks the rows that went to the model set and ``output``
        is their estimates, or what the set raised.  Returns
        ``(predictions, tiers, reasons)``: ``tiers[i]`` is the
        :class:`~repro.robustness.degradation.DegradationTier` that served
        row ``i`` and ``reasons`` maps exactly the degraded rows to why
        they left the model tier, non-finite rows first.  Valid output for
        a group without non-finite rows is returned unchanged
        (bit-identical to the unguarded path).
        """
        n = int(matrix.shape[0])
        tiers = np.full(n, int(DegradationTier.MODEL), dtype=np.int64)
        model_rows = np.flatnonzero(finite)
        if isinstance(output, Exception):
            if model_rows.size:
                _LOGGER.warning(
                    "model set %s/%s raised during batch prediction; degrading "
                    "%d row(s): %s",
                    family.value,
                    resource,
                    int(model_rows.size),
                    output,
                )
            predictions = np.zeros(n, dtype=np.float64)
            failed, reason = model_rows, "model-error"
        else:
            output = np.asarray(output, dtype=np.float64)
            invalid = ~np.isfinite(output) | (output < 0.0)
            if model_rows.size == n and not invalid.any():
                return output, tiers, {}
            predictions = np.zeros(n, dtype=np.float64)
            predictions[model_rows[~invalid]] = output[~invalid]
            failed, reason = model_rows[invalid], "invalid-prediction"
        reasons = dict.fromkeys(np.flatnonzero(~finite).tolist(), "non-finite-features")
        reasons.update(dict.fromkeys(failed.tolist(), reason))
        degraded = np.asarray(sorted(reasons), dtype=np.int64)
        if degraded.size:
            names = features_for_family(family)
            cout = matrix[:, names.index("COUT")]
            cin1 = matrix[:, names.index("CIN1")]
            raw_cards = np.maximum(cout[degraded], cin1[degraded])
            cards = np.where(
                np.isfinite(raw_cards), np.maximum(raw_cards, 0.0), 0.0
            )
            self._degrade_rows(
                family, resource, degraded, cards, predictions, tiers, reasons
            )
        return predictions, tiers, reasons

    def _degrade_rows(
        self,
        family: OperatorFamily,
        resource: str,
        row_indices: np.ndarray,
        cards: np.ndarray,
        predictions: np.ndarray,
        tiers: np.ndarray,
        reasons: dict[int, str],
    ) -> None:
        """Serve degraded rows down the ladder (mutates predictions/tiers).

        ``cards`` holds the sanitised (finite, non-negative) output
        cardinalities of ``row_indices``.  Each tier serves every row it can
        produce a finite estimate for; anything still unserved after the
        global default becomes an explicit zero.
        """
        remaining = np.arange(row_indices.shape[0], dtype=np.int64)
        scaling = self.scaling_fallbacks.get((family, resource))
        if scaling is not None and remaining.size:
            out = scaling.predict_rows(cards[remaining])
            served = np.isfinite(out)
            taken = remaining[served]
            predictions[row_indices[taken]] = out[served]
            tiers[row_indices[taken]] = int(DegradationTier.SCALING)
            remaining = remaining[~served]
        rate = self.family_rates.get((family, resource))
        if rate is not None and np.isfinite(rate) and remaining.size:
            out = np.maximum(float(rate) * cards[remaining], 0.0)
            served = np.isfinite(out)
            taken = remaining[served]
            predictions[row_indices[taken]] = out[served]
            tiers[row_indices[taken]] = int(DegradationTier.FAMILY_RATE)
            remaining = remaining[~served]
        fallback = self.fallbacks.get(resource)
        if fallback is not None and remaining.size:
            out = fallback.predict_batch(cards[remaining], cards[remaining])
            served = np.isfinite(out)
            taken = remaining[served]
            predictions[row_indices[taken]] = out[served]
            tiers[row_indices[taken]] = int(DegradationTier.GLOBAL_DEFAULT)
            remaining = remaining[~served]
        if remaining.size:
            predictions[row_indices[remaining]] = 0.0
            tiers[row_indices[remaining]] = int(DegradationTier.GLOBAL_DEFAULT)
            for position in remaining:
                row_index = int(row_indices[position])
                reasons[row_index] = reasons[row_index] + "; no-fallback-available"

    def _flag_ood_plans(
        self,
        family_rows: dict[OperatorFamily, FamilyRows],
        ood_threshold: float | None,
    ) -> dict[int, float]:
        """Plans whose features leave the training envelopes, with scores."""
        ood_plans: dict[int, float] = {}
        if ood_threshold is None:
            return ood_plans
        for family, rows in family_rows.items():
            envelope = self.envelopes.get(family)
            if envelope is None:
                continue
            scores = envelope.out_scores(rows.matrix)
            flagged = np.flatnonzero(np.isfinite(scores) & (scores > float(ood_threshold)))
            for row_index in flagged:
                plan_index = int(rows.plan_indices[row_index])
                score = float(scores[row_index])
                if score > ood_plans.get(plan_index, 0.0):
                    ood_plans[plan_index] = score
        return ood_plans

    def _estimate_features(
        self, family: OperatorFamily, feature_values: dict[str, float], resource: str
    ) -> float:
        return float(self.estimate_feature_rows(family, [feature_values], resource)[0])

    def _check_resource(self, resource: str) -> None:
        if resource not in self.resources:
            raise ValueError(
                f"unknown resource {resource!r}; this estimator models {self.resources}"
            )

    # -- introspection -------------------------------------------------------------------------------------
    def families(self, resource: str = "cpu") -> list[OperatorFamily]:
        """Operator families with a trained model set for ``resource``."""
        return [family for (family, res) in self.model_sets if res == resource]

    def model_set(self, family: OperatorFamily, resource: str = "cpu") -> OperatorModelSet:
        try:
            return self.model_sets[(family, resource)]
        except KeyError:
            raise KeyError(f"no model set for family {family} and resource {resource!r}") from None

    @staticmethod
    def family_of(operator: PlanOperator) -> OperatorFamily:
        """Convenience passthrough to the feature-definition mapping."""
        return operator_family(operator.op_type)
