"""Input guardrails: reject or flag bad plans before estimation.

:class:`PlanValidator` checks extracted workload features against two
criteria:

* **finiteness** — any NaN/inf feature value is a fatal ``"non-finite"``
  issue; such rows cannot be served by any model and (in ``reject`` mode)
  fail the whole request up front with a :class:`PlanValidationError`;
* **distribution** — rows outside the per-family training envelopes by more
  than ``ood_threshold`` training-ranges are flagged
  ``"out-of-distribution"``; operator families with no recorded envelope are
  flagged ``"unknown-family"``.  Both are advisory: the paper's scaling
  fallbacks exist precisely to serve such inputs, just with wider error
  bars, so they degrade rather than reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.features.definitions import OperatorFamily, features_for_family
from repro.features.extractor import OperatorFeatures, group_by_family
from repro.robustness.envelope import FeatureEnvelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.estimator import ResourceEstimator

__all__ = [
    "ValidationIssue",
    "ValidationReport",
    "PlanValidationError",
    "PlanValidator",
]

#: Issue kinds, in decreasing severity.
KIND_NON_FINITE = "non-finite"
KIND_OOD = "out-of-distribution"
KIND_UNKNOWN_FAMILY = "unknown-family"


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found in one operator's extracted features."""

    plan_index: int
    node_id: int
    kind: str
    family: OperatorFamily
    detail: str
    score: float = 0.0

    @property
    def fatal(self) -> bool:
        """Fatal issues cannot be served by any model tier."""

        return self.kind == KIND_NON_FINITE


@dataclass(frozen=True)
class ValidationReport:
    """All issues found across one extracted workload."""

    issues: tuple[ValidationIssue, ...] = ()
    n_plans: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def fatal_issues(self) -> tuple[ValidationIssue, ...]:
        return tuple(issue for issue in self.issues if issue.fatal)

    @property
    def advisory_issues(self) -> tuple[ValidationIssue, ...]:
        return tuple(issue for issue in self.issues if not issue.fatal)

    def plans_with(self, kind: str) -> tuple[int, ...]:
        """Plan indices carrying at least one issue of ``kind``, sorted."""

        return tuple(
            sorted({issue.plan_index for issue in self.issues if issue.kind == kind})
        )

    def summary(self) -> str:
        if self.ok:
            return f"validated {self.n_plans} plans: clean"
        counts: dict[str, int] = {}
        for issue in self.issues:
            counts[issue.kind] = counts.get(issue.kind, 0) + 1
        parts = ", ".join(f"{kind}={count}" for kind, count in sorted(counts.items()))
        return f"validated {self.n_plans} plans: {parts}"


class PlanValidationError(ValueError):
    """Raised in ``reject`` mode when a workload has fatal feature issues."""

    def __init__(self, report: ValidationReport) -> None:
        fatal = report.fatal_issues
        preview = "; ".join(
            f"plan {issue.plan_index} node {issue.node_id} ({issue.family.value}): "
            f"{issue.detail}"
            for issue in fatal[:3]
        )
        suffix = "" if len(fatal) <= 3 else f" (+{len(fatal) - 3} more)"
        super().__init__(
            f"{len(fatal)} operator(s) with non-finite features: {preview}{suffix}"
        )
        self.report = report


@dataclass(frozen=True)
class PlanValidator:
    """Checks extracted workloads against the training-feature envelopes."""

    envelopes: Mapping[OperatorFamily, FeatureEnvelope] = field(default_factory=dict)
    ood_threshold: float = 1.0

    @classmethod
    def for_estimator(
        cls, estimator: "ResourceEstimator", ood_threshold: float = 1.0
    ) -> "PlanValidator":
        """A validator bound to the envelopes the estimator recorded at fit."""

        return cls(envelopes=dict(estimator.envelopes), ood_threshold=ood_threshold)

    def validate_workload(
        self, extracted: Sequence[Mapping[int, OperatorFeatures]]
    ) -> ValidationReport:
        """Check every operator row of an extracted workload.

        ``extracted[i]`` is the per-plan ``{node_id: OperatorFeatures}``
        mapping produced by
        :meth:`~repro.core.estimator.ResourceEstimator.extract_plan_features`.
        """

        issues: list[ValidationIssue] = []
        for family, rows in group_by_family(extracted).items():
            names = features_for_family(family)
            owners = list(zip(rows.plan_indices.tolist(), rows.node_ids.tolist()))
            finite = np.isfinite(rows.matrix)
            row_finite = finite.all(axis=1)
            for row_index in np.flatnonzero(~row_finite):
                plan_index, node_id = owners[row_index]
                bad = [names[col] for col in np.flatnonzero(~finite[row_index])]
                issues.append(
                    ValidationIssue(
                        plan_index=plan_index,
                        node_id=node_id,
                        kind=KIND_NON_FINITE,
                        family=family,
                        detail=f"non-finite feature(s): {', '.join(bad)}",
                        score=float("inf"),
                    )
                )

            envelope = self.envelopes.get(family)
            if envelope is None:
                for plan_index, node_id in owners:
                    issues.append(
                        ValidationIssue(
                            plan_index=plan_index,
                            node_id=node_id,
                            kind=KIND_UNKNOWN_FAMILY,
                            family=family,
                            detail="no training envelope recorded for this family",
                        )
                    )
                continue

            scores = envelope.out_scores(rows.matrix)
            ood_rows = np.flatnonzero(row_finite & (scores > self.ood_threshold))
            for row_index in ood_rows:
                plan_index, node_id = owners[row_index]
                issues.append(
                    ValidationIssue(
                        plan_index=plan_index,
                        node_id=node_id,
                        kind=KIND_OOD,
                        family=family,
                        detail=(
                            f"features {scores[row_index]:.3g} training-ranges "
                            f"outside the fit envelope"
                        ),
                        score=float(scores[row_index]),
                    )
                )

        issues.sort(key=lambda issue: (issue.plan_index, issue.node_id, issue.kind))
        return ValidationReport(issues=tuple(issues), n_plans=len(extracted))

    def require_valid(
        self, extracted: Sequence[Mapping[int, OperatorFeatures]]
    ) -> ValidationReport:
        """Validate and raise :class:`PlanValidationError` on fatal issues."""

        report = self.validate_workload(extracted)
        if report.fatal_issues:
            raise PlanValidationError(report)
        return report
