"""Deterministic fault injection for robustness tests.

Every fault is derived from a seeded RNG (:func:`repro.data.rng.make_rng`),
so a failing test reproduces byte-for-byte.  The injector covers the four
failure classes the serving guardrails defend against:

* **artifact corruption** — flipped bytes, truncation, wrong format version
  (all CRC-/version-detectable by the codec);
* **feature corruption** — NaN/inf values planted in extracted features;
* **model faults** — shims that make a trained model set raise, return NaN
  or return negatives in its finishing step, after selection and the
  kernel ran as usual, driving the degradation ladder;
* **plausible-but-broken artifacts** — CRC-valid artifacts whose models
  predict garbage, catchable only by the canary checks.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.model_selection import BatchSelection
from repro.core.trainer import OperatorModelSet
from repro.data.rng import make_rng
from repro.features.definitions import OperatorFamily

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.estimator import ResourceEstimator
    from repro.features.extractor import OperatorFeatures

__all__ = ["FaultInjector", "TransientReader"]

#: Artifact layout: 8-byte magic, then ``<HI`` (version u16, CRC u32).
_MAGIC_BYTES = 8
_VERSION_OFFSET = _MAGIC_BYTES
_HEADER_BYTES = _MAGIC_BYTES + struct.calcsize("<HI")


class TransientReader:
    """A file reader that fails with :class:`OSError` for the first N calls."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0

    def __call__(self, path: Path) -> bytes:
        self.calls += 1
        if self.calls <= self.failures:
            raise OSError(f"injected transient IO failure #{self.calls}")
        return Path(path).read_bytes()


@dataclass
class _BrokenModelSet(OperatorModelSet):
    """A trained model set whose finishing step fails in a chosen mode.

    Selection and the kernel serve its rows as usual; ``finish_batch`` then
    raises (``"raise"``) or returns NaN (``"nan"``) or negative
    (``"negative"``) estimates.
    """

    mode: str = "raise"

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "nan", "negative"):
            raise ValueError(f"unknown poison mode {self.mode!r}")

    def finish_batch(
        self, matrix: np.ndarray, selection: BatchSelection, outputs: np.ndarray
    ) -> np.ndarray:
        if self.mode == "raise":
            raise RuntimeError("injected model fault")
        value = np.nan if self.mode == "nan" else -1.0
        return np.full(int(np.asarray(matrix).shape[0]), value, dtype=np.float64)


@dataclass
class FaultInjector:
    """Seeded source of deterministic faults for robustness tests."""

    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed, "fault-injector")

    # -- artifact faults -----------------------------------------------------------------
    def corrupt_artifact(
        self, source: str | Path, dest: str | Path, n_flips: int = 4
    ) -> Path:
        """Copy an artifact with ``n_flips`` random body bytes XOR-flipped.

        Flips land strictly after the envelope header, so the corruption is
        caught by the CRC check rather than the magic/version checks.
        """

        data = bytearray(Path(source).read_bytes())
        if len(data) <= _HEADER_BYTES:
            raise ValueError(f"artifact {source} is too small to corrupt")
        offsets = self._rng.integers(_HEADER_BYTES, len(data), size=n_flips)
        for offset in offsets:
            data[int(offset)] ^= int(self._rng.integers(1, 256))
        out = Path(dest)
        out.write_bytes(bytes(data))
        return out

    def truncate_artifact(
        self, source: str | Path, dest: str | Path, keep_fraction: float = 0.5
    ) -> Path:
        """Copy an artifact keeping only the leading ``keep_fraction`` bytes."""

        if not 0.0 < keep_fraction < 1.0:
            raise ValueError(f"keep_fraction must be in (0, 1), got {keep_fraction}")
        data = Path(source).read_bytes()
        out = Path(dest)
        out.write_bytes(data[: max(1, int(len(data) * keep_fraction))])
        return out

    def wrong_version_artifact(
        self, source: str | Path, dest: str | Path, version_bump: int = 100
    ) -> Path:
        """Copy an artifact with its format version field patched upward.

        The CRC covers only the body, so the copy remains CRC-consistent —
        the loader must reject it on the version check alone.
        """

        data = bytearray(Path(source).read_bytes())
        if len(data) < _HEADER_BYTES:
            raise ValueError(f"artifact {source} is too small to re-version")
        (current,) = struct.unpack_from("<H", data, _VERSION_OFFSET)
        struct.pack_into("<H", data, _VERSION_OFFSET, current + version_bump)
        out = Path(dest)
        out.write_bytes(bytes(data))
        return out

    def poisoned_artifact(
        self, estimator: "ResourceEstimator", dest: str | Path, mode: str = "nan"
    ) -> Path:
        """Write a CRC-valid artifact whose models predict garbage.

        ``mode="nan"`` plants a NaN initial prediction in every model of the
        first (sorted) model set; ``mode="huge"`` plants ``1e200``, which
        stays finite but blows the canary's envelope-scaled bound.  Only the
        canary checks can catch these — the codec round-trips them happily.
        """

        from repro.core.serialization import save_estimator

        if mode not in ("nan", "huge"):
            raise ValueError(f"unknown poison mode {mode!r}")
        poisoned = copy.deepcopy(estimator)
        if not poisoned.model_sets:
            raise ValueError("estimator has no model sets to poison")
        key = min(poisoned.model_sets, key=lambda k: (k[0].value, k[1]))
        model_set = poisoned.model_sets[key]
        value = float("nan") if mode == "nan" else 1e200
        for model in model_set.models:
            if model.model_ is not None:
                model.model_.initial_prediction_ = value
        # Scaled models clip their MART output to the training target range,
        # which would neutralise the poison; the plain (no-steps) model never
        # clips, so pointing the set's default at it guarantees the poison
        # survives to the canary probe.
        model_set.default_model = next(
            (m for m in model_set.models if not m.steps), model_set.default_model
        )
        return save_estimator(poisoned, dest)

    # -- feature faults -----------------------------------------------------------------
    def corrupt_features(
        self,
        extracted: Sequence[Mapping[int, "OperatorFeatures"]],
        rate: float = 0.25,
        kind: str = "nan",
    ) -> list[dict[int, "OperatorFeatures"]]:
        """Deep-copy extracted features with ~``rate`` of operators corrupted.

        Each corrupted operator has one randomly chosen feature replaced by
        NaN (``kind="nan"``) or +inf (``kind="inf"``).  At least one operator
        is always corrupted.  The input is never mutated.
        """

        from repro.features.extractor import OperatorFeatures

        if kind not in ("nan", "inf"):
            raise ValueError(f"unknown corruption kind {kind!r}")
        poison = float("nan") if kind == "nan" else float("inf")
        corrupted: list[dict[int, OperatorFeatures]] = []
        n_corrupted = 0
        first_slot: tuple[int, int] | None = None
        for plan_index, plan_features in enumerate(extracted):
            plan_copy: dict[int, OperatorFeatures] = {}
            for node_id, op_features in plan_features.items():
                values = dict(op_features.values)
                if first_slot is None:
                    first_slot = (plan_index, node_id)
                if values and self._rng.random() < rate:
                    target = sorted(values)[int(self._rng.integers(0, len(values)))]
                    values[target] = poison
                    n_corrupted += 1
                plan_copy[node_id] = OperatorFeatures(
                    family=op_features.family, values=values
                )
            corrupted.append(plan_copy)
        if n_corrupted == 0 and first_slot is not None:
            plan_index, node_id = first_slot
            op_features = corrupted[plan_index][node_id]
            values = dict(op_features.values)
            target = sorted(values)[0]
            values[target] = poison
            corrupted[plan_index][node_id] = OperatorFeatures(
                family=op_features.family, values=values
            )
        return corrupted

    # -- model faults -------------------------------------------------------------------
    def poison_model(
        self,
        estimator: "ResourceEstimator",
        family: OperatorFamily,
        resource: str,
        mode: str = "raise",
    ) -> "ResourceEstimator":
        """A deep copy of the estimator whose (family, resource) model fails.

        ``mode`` is ``"raise"`` (prediction raises :class:`RuntimeError`),
        ``"nan"`` or ``"negative"``.  The original estimator is untouched.
        """

        poisoned = copy.deepcopy(estimator)
        key = (family, resource)
        if key not in poisoned.model_sets:
            raise KeyError(f"no model set for {family.value}/{resource}")
        model_set = poisoned.model_sets[key]
        poisoned.model_sets[key] = _BrokenModelSet(
            family=model_set.family,
            resource=model_set.resource,
            models=model_set.models,
            default_model=model_set.default_model,
            mode=mode,
        )
        return poisoned

    # -- IO faults ----------------------------------------------------------------------
    def transient_reader(self, failures: int = 2) -> TransientReader:
        """A reader for ``load_estimator_with_retry`` failing ``failures`` times."""

        return TransientReader(failures)
