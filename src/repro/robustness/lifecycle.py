"""Safe artifact lifecycle: retried loads and canary-checked hot swaps.

Two failure classes threaten a long-running estimation service:

* **transient IO** while reading an artifact (network filesystem hiccup,
  artifact mid-publish) — handled by :func:`load_estimator_with_retry`,
  bounded retries with exponential backoff on :class:`OSError`;
* **plausible-but-broken artifacts** — a candidate that decodes fine (CRC
  intact) yet predicts garbage.  :func:`run_canary_checks` probes every
  model set with envelope-derived canary inputs and requires finite,
  non-negative, envelope-scaled-bounded predictions before
  :meth:`~repro.api.EstimationService.swap_artifact` will promote it.

Decode errors (:class:`~repro.core.serialization.EstimatorCodecError`) are
never retried: a corrupt artifact stays corrupt.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.features.definitions import OperatorFamily

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.estimator import ResourceEstimator

__all__ = [
    "ArtifactSwapError",
    "CanaryFailure",
    "CanaryReport",
    "load_estimator_with_retry",
    "run_canary_checks",
]

_LOGGER = logging.getLogger("repro.robustness.lifecycle")

#: Synthetic canary cardinalities for estimators without a recorded envelope
#: for that family: one typical and one large-but-sane row.
_SYNTHETIC_CANARY_VALUES = (1.0, 1000.0)


class ArtifactSwapError(RuntimeError):
    """A candidate artifact failed validation; the live estimator is kept."""


def load_estimator_with_retry(
    path: str | Path,
    retries: int = 3,
    backoff: float = 0.05,
    sleep: Callable[[float], None] = time.sleep,
    reader: "Callable[[Path], bytes] | None" = None,
    mmap: bool = False,
) -> "ResourceEstimator":
    """Load an artifact, retrying transient IO errors with backoff.

    Reads are attempted up to ``retries + 1`` times; attempt ``n`` sleeps
    ``backoff * 2**n`` seconds first.  Only :class:`OSError` is retried —
    and not :class:`FileNotFoundError`, which is almost always permanent
    (atomic publishes via ``os.replace`` never expose a missing file).
    Decode failures raise
    :class:`~repro.core.serialization.EstimatorCodecError` immediately; so
    does the final IO failure, chained from the underlying ``OSError``.

    With ``mmap=True`` (and no custom ``reader``) the artifact is
    memory-mapped instead of read, so the inference arrays are zero-copy
    views into the file (see
    :func:`repro.core.serialization.load_estimator`).
    """

    from repro.core.serialization import (
        EstimatorCodecError,
        estimator_from_bytes,
        mmap_artifact,
    )

    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    resolved = Path(path)
    read: "Callable[[Path], bytes | memoryview]"
    if reader is not None:
        read = reader
    elif mmap:
        read = mmap_artifact
    else:
        read = Path.read_bytes
    last_error: OSError | None = None
    for attempt in range(retries + 1):
        if attempt:
            sleep(backoff * 2 ** (attempt - 1))
        try:
            data = read(resolved)
        except FileNotFoundError:
            raise
        except OSError as exc:
            last_error = exc
            _LOGGER.warning(
                "transient read failure for %s (attempt %d/%d): %s",
                resolved,
                attempt + 1,
                retries + 1,
                exc,
            )
            continue
        return estimator_from_bytes(data)
    raise EstimatorCodecError(
        f"failed to read estimator artifact {resolved} after "
        f"{retries + 1} attempt(s): {last_error}"
    ) from last_error


@dataclass(frozen=True)
class CanaryFailure:
    """One canary probe a candidate artifact failed.

    ``family`` is ``None`` for estimator-wide failures (e.g. a non-finite
    global fallback rate).
    """

    family: "OperatorFamily | None"
    resource: str
    reason: str


@dataclass(frozen=True)
class CanaryReport:
    """Outcome of probing a candidate estimator with canary inputs."""

    failures: tuple[CanaryFailure, ...]
    n_model_sets: int
    n_predictions: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "passed" if self.passed else f"FAILED ({len(self.failures)} probes)"
        return (
            f"canary {status}: {self.n_predictions} predictions across "
            f"{self.n_model_sets} model sets"
        )


def _canary_matrix(
    estimator: "ResourceEstimator", family: OperatorFamily
) -> np.ndarray:
    """Envelope-derived canary rows, or synthetic rows for estimators without
    a recorded envelope for that family."""

    from repro.features.definitions import features_for_family

    envelope = estimator.envelopes.get(family)
    if envelope is not None:
        return envelope.canary_rows()
    width = len(features_for_family(family))
    return np.array(
        [[value] * width for value in _SYNTHETIC_CANARY_VALUES], dtype=np.float64
    )


def _canary_bound(
    estimator: "ResourceEstimator",
    family: OperatorFamily,
    resource: str,
    cardinalities: np.ndarray,
    margin: float,
) -> "np.ndarray | None":
    """Upper bound per canary row, scaled from the recorded per-tuple rates."""

    rate = estimator.family_rates.get((family, resource))
    if rate is None:
        fallback = estimator.fallbacks.get(resource)
        rate = fallback.per_tuple if fallback is not None else None
    if rate is None or not np.isfinite(rate) or rate <= 0.0:
        return None
    return margin * rate * np.maximum(cardinalities, 1.0)


def run_canary_checks(
    estimator: "ResourceEstimator", margin: float = 1e9
) -> CanaryReport:
    """Probe every model set of an estimator with canary predictions.

    Probes go through the estimator's serving path without guardrails
    (:meth:`~repro.core.estimator.ResourceEstimator.estimate_family_matrix`),
    so non-finite and negative outputs surface, and the first probe builds
    the estimator's forest bank before it serves any request.  A probe fails when a prediction is non-finite, negative, or exceeds
    ``margin`` times the recorded per-tuple rate at the canary cardinality
    (the bound is skipped when no rate was recorded, e.g. for artifacts
    written before rates existed).  Global fallback rates are checked for
    finiteness as well.
    """

    from repro.features.definitions import features_for_family

    failures: list[CanaryFailure] = []
    n_predictions = 0
    for family, resource in sorted(
        estimator.model_sets, key=lambda key: (key[0].value, key[1])
    ):
        matrix = _canary_matrix(estimator, family)
        names = features_for_family(family)
        cards = np.maximum(
            matrix[:, names.index("COUT")], matrix[:, names.index("CIN1")]
        )
        try:
            predictions = estimator.estimate_family_matrix(family, matrix, resource)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            failures.append(
                CanaryFailure(family, resource, f"canary prediction raised: {exc}")
            )
            continue
        n_predictions += int(predictions.shape[0])
        if not np.isfinite(predictions).all():
            failures.append(
                CanaryFailure(family, resource, "non-finite canary prediction")
            )
            continue
        if (predictions < 0.0).any():
            failures.append(
                CanaryFailure(family, resource, "negative canary prediction")
            )
            continue
        bound = _canary_bound(estimator, family, resource, cards, margin)
        if bound is not None and (predictions > bound).any():
            worst = float(np.max(predictions))
            failures.append(
                CanaryFailure(
                    family,
                    resource,
                    f"canary prediction {worst:.3g} exceeds envelope-scaled bound",
                )
            )
    for resource, fallback in sorted(estimator.fallbacks.items()):
        if not np.isfinite(fallback.per_tuple):
            failures.append(
                CanaryFailure(
                    None,
                    resource,
                    f"non-finite global fallback rate for {resource!r}",
                )
            )
    return CanaryReport(
        failures=tuple(failures),
        n_model_sets=len(estimator.model_sets),
        n_predictions=n_predictions,
    )
