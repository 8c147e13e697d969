"""Output checks, through the public estimate views only.

Every check returns a list of failure messages (empty when the check holds),
so a run can report all of them before it declares itself incorrect.  The
checks read estimates through ``operators()``, ``pipelines()`` and
``query()`` — the views callers use — never through internal fields.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Sequence

import numpy as np

#: Floor for ratio errors, so a zero estimate or actual stays finite.
_FLOOR = 1e-9
_EPS = float(np.finfo(np.float64).eps)


def check_estimate(estimate: Any, resources: Sequence[str]) -> list[str]:
    """Bounds and the pipeline partition for every plan of one estimate.

    Every operator of every plan has exactly one estimate, each finite and
    >= 0; the plan's pipelines partition its operators; and per plan and
    resource the ``pipelines()`` estimates sum to ``query()`` within float64
    rounding.
    """
    failures: list[str] = []
    for index, plan in enumerate(estimate.plans):
        node_ids = [op.node_id for op in plan.operators()]
        expected = set(node_ids)
        in_pipelines = sorted(op.node_id for p in plan.pipelines() for op in p.operators)
        if in_pipelines != sorted(node_ids):
            failures.append(f"plan {index}: pipelines do not partition the operators")
        for resource in resources:
            where = f"plan {index} ({plan.query.name}) {resource}"
            operators = estimate.operators(index, resource)
            if set(operators) != expected or len(operators) != len(node_ids):
                failures.append(
                    f"{where}: estimates for operators {sorted(operators)}, "
                    f"plan has {sorted(node_ids)}"
                )
                continue
            values = np.fromiter(operators.values(), dtype=np.float64, count=len(operators))
            if not (np.isfinite(values).all() and (values >= 0.0).all()):
                failures.append(f"{where}: non-finite or negative operator estimate")
                continue
            total = estimate.query(index, resource)
            by_pipeline = sum(estimate.pipelines(index, resource).values())
            tolerance = len(node_ids) * _EPS * float(np.abs(values).sum())
            if not abs(by_pipeline - total) <= tolerance:
                failures.append(
                    f"{where}: pipelines sum to {by_pipeline!r}, query() is {total!r}"
                )
    return failures


def _bits(values: dict[int, float], keys: list[int]) -> np.ndarray:
    return np.array([values[key] for key in keys], dtype=np.float64).view(np.uint64)


def check_same(
    served: Any,
    served_index: int,
    reference: Any,
    reference_index: int,
    resources: Sequence[str],
    query_totals: bool = False,
) -> list[str]:
    """Bit-for-bit agreement of one plan's estimates on two paths.

    Per-operator estimates must match exactly.  With ``query_totals`` the
    ``query()`` totals must match exactly as well; that holds only when both
    paths summed the plan's operators in the same order.
    """
    failures: list[str] = []
    for resource in resources:
        mine = served.operators(served_index, resource)
        theirs = reference.operators(reference_index, resource)
        keys = sorted(mine)
        if keys != sorted(theirs):
            failures.append(f"{resource}: operator sets differ ({keys} vs {sorted(theirs)})")
        elif not np.array_equal(_bits(mine, keys), _bits(theirs, keys)):
            failures.append(f"{resource}: operator estimates differ between the two paths")
        elif query_totals:
            a = np.float64(served.query(served_index, resource)).view(np.uint64)
            b = np.float64(reference.query(reference_index, resource)).view(np.uint64)
            if a != b:
                failures.append(f"{resource}: query totals differ between the two paths")
    return failures


def check_futures(futures: Sequence[Future], plans_submitted: int, plans_served: int) -> list[str]:
    """Every submitted future resolved, and the service served exactly the plans sent."""
    failures: list[str] = []
    pending = sum(1 for future in futures if not future.done())
    if pending:
        failures.append(f"{pending} of {len(futures)} futures never resolved")
    if plans_served != plans_submitted:
        failures.append(
            f"service plans_served grew by {plans_served}, {plans_submitted} plans were submitted"
        )
    return failures


def median_ratio_error(estimates: Sequence[float], actuals: Sequence[float]) -> float:
    est = np.maximum(np.asarray(estimates, dtype=np.float64), _FLOOR)
    act = np.maximum(np.asarray(actuals, dtype=np.float64), _FLOOR)
    return float(np.median(np.maximum(est / act, act / est)))


def check_ratio_band(
    estimates: Sequence[float], actuals: Sequence[float], resource: str, limit: float = 2.0
) -> list[str]:
    """The paper's ratio-2 band: median max(est/act, act/est) at most ``limit``."""
    if len(estimates) == 0:
        return [f"{resource}: no in-distribution plans to check"]
    median = median_ratio_error(estimates, actuals)
    if not median <= limit:
        return [f"{resource}: median ratio error {median:.3f} exceeds {limit:g}"]
    return []


def l1_error(estimates: Sequence[float], actuals: Sequence[float]) -> float:
    """The paper's L1 relative error: mean of |est - act| / est."""
    est = np.asarray(estimates, dtype=np.float64)
    act = np.asarray(actuals, dtype=np.float64)
    return float(np.mean(np.abs(est - act) / np.maximum(np.abs(est), _FLOOR)))
