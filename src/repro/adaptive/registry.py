"""An immutable, versioned model registry over the artifact codec.

The registry is a directory of promoted and candidate model artifacts —
the audit trail the adaptive loop swaps through:

.. code-block:: text

    registry-root/
        registry.json          # index: versions, active pointer, event log
        v0001/
            model.bin          # versioned CRC-checked codec artifact
            manifest.json      # checksum, corpus fingerprint, train metrics
        v0002/
            ...

Artifacts are written exactly once through the existing codec
(:meth:`~repro.core.estimator.ResourceEstimator.save`) and never mutated;
every registration captures a :class:`ModelManifest` with the artifact's
SHA-256 checksum, its codec format version, a fingerprint of the training
corpus it was fitted from and its metrics at train time.  Promotion moves
the ``active`` pointer and appends to the event log; rejected candidates
(failed validation or canary) stay on disk with status ``rejected`` so a
failed promotion is a recorded fact, not a deleted file.

Index and manifest writes go through a temp-file + :func:`os.replace`
rename, so a crashed writer never leaves a half-written JSON behind.  No
manifest field carries wall-clock time — a seeded run produces the same
registry byte-for-byte, matching the repository's determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.core.estimator import ResourceEstimator
from repro.core.serialization import ARTIFACT_VERSION

__all__ = [
    "ModelManifest",
    "ModelRegistry",
    "RegistryError",
    "corpus_fingerprint",
    "manifest_for_artifact",
]

_LOGGER = logging.getLogger("repro.adaptive.registry")

#: File names inside a registry root / version directory.
_INDEX_NAME = "registry.json"
_MANIFEST_NAME = "manifest.json"
_ARTIFACT_NAME = "model.bin"

#: Manifest lifecycle states.
_STATUSES = ("candidate", "active", "retired", "rejected")


class RegistryError(ValueError):
    """Raised for unknown versions, duplicate ids and malformed registries."""


@dataclass(frozen=True)
class ModelManifest:
    """The immutable metadata recorded for one registered model version."""

    version: str
    #: SHA-256 of the artifact bytes as written.
    checksum: str
    #: Codec format version of the artifact (``ARTIFACT_VERSION`` when written).
    artifact_version: int
    #: Fingerprint of the training corpus (:func:`corpus_fingerprint`).
    corpus: dict[str, object] = field(default_factory=dict)
    #: Metrics at train time, ``{resource: {metric: value}}``.
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Version this model was refit to replace (``None`` for the seed model).
    parent: str | None = None
    status: str = "candidate"
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise RegistryError(
                f"unknown manifest status {self.status!r}; known: {_STATUSES}"
            )

    def to_json(self) -> dict[str, object]:
        return dict(asdict(self))

    @classmethod
    def from_json(cls, payload: dict[str, object]) -> "ModelManifest":
        return cls(
            version=str(payload["version"]),
            checksum=str(payload["checksum"]),
            artifact_version=int(payload["artifact_version"]),  # type: ignore[arg-type]
            corpus=dict(payload.get("corpus", {})),  # type: ignore[arg-type]
            metrics={
                str(resource): {str(k): float(v) for k, v in values.items()}
                for resource, values in dict(payload.get("metrics", {})).items()  # type: ignore[arg-type]
            },
            parent=None if payload.get("parent") is None else str(payload["parent"]),
            status=str(payload.get("status", "candidate")),
            note=str(payload.get("note", "")),
        )


def corpus_fingerprint(
    queries: object, mode: object = None, name: str | None = None
) -> dict[str, object]:
    """A compact, deterministic fingerprint of a training corpus.

    Accepts a :class:`~repro.api.TrainingCorpus` (or anything exposing
    ``queries``/``mode``/``name``); alternatively a plain sequence of
    :class:`~repro.workloads.runner.ObservedQuery` plus explicit ``mode`` and
    ``name``.  The digest hashes the ordered query names and templates, so
    two corpora built from the same observations fingerprint identically.
    """
    corpus_queries = getattr(queries, "queries", queries)
    corpus_mode = mode if mode is not None else getattr(queries, "mode", None)
    corpus_name = name if name is not None else str(getattr(queries, "name", "corpus"))
    names = [
        f"{query.query.name}\t{query.template}" for query in corpus_queries  # type: ignore[union-attr]
    ]
    digest = hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()
    return {
        "name": corpus_name,
        "mode": getattr(corpus_mode, "value", str(corpus_mode)),
        "n_queries": len(names),
        "n_operators": sum(
            len(query.operators) for query in corpus_queries  # type: ignore[union-attr]
        ),
        "digest": digest,
    }


class ModelRegistry:
    """Directory-backed registry of immutable model versions.

    Thread-safe: the background retrain controller registers and promotes
    while CLI readers list and diff.  All mutation happens under one lock
    and lands on disk through atomic renames.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._index = self._load_index()

    # -- registration ----------------------------------------------------------------------------
    def register(
        self,
        estimator: ResourceEstimator,
        corpus: dict[str, object] | None = None,
        metrics: dict[str, dict[str, float]] | None = None,
        parent: str | None = None,
        note: str = "",
    ) -> ModelManifest:
        """Persist ``estimator`` as the next immutable version (status candidate)."""
        with self._lock:
            sequence = int(self._index["next"])  # type: ignore[arg-type]
            version = f"v{sequence:04d}"
            if parent is not None and parent not in self.versions():
                raise RegistryError(f"unknown parent version {parent!r}")
            version_dir = self.root / version
            version_dir.mkdir(parents=True, exist_ok=False)
            artifact = version_dir / _ARTIFACT_NAME
            estimator.save(artifact)
            manifest = ModelManifest(
                version=version,
                checksum=_sha256(artifact),
                artifact_version=ARTIFACT_VERSION,
                corpus=dict(corpus or {}),
                metrics={k: dict(v) for k, v in (metrics or {}).items()},
                parent=parent,
                status="candidate",
                note=note,
            )
            _write_json(version_dir / _MANIFEST_NAME, manifest.to_json())
            self._index["next"] = sequence + 1
            versions = list(self._index["versions"])  # type: ignore[arg-type]
            versions.append(version)
            self._index["versions"] = versions
            self._record_event("register", version, note)
            self._save_index()
            _LOGGER.info("registered model %s (checksum %s)", version, manifest.checksum[:12])
            return manifest

    def promote(self, version: str, note: str = "") -> ModelManifest:
        """Make ``version`` the active model; the previous active retires."""
        with self._lock:
            manifest = self.manifest(version)
            if manifest.status == "rejected":
                raise RegistryError(f"cannot promote rejected version {version}")
            previous = self.active
            if previous is not None and previous != version:
                prior = self.manifest(previous)
                self._write_manifest(replace(prior, status="retired"))
            self._write_manifest(replace(manifest, status="active", note=note or manifest.note))
            self._index["active"] = version
            self._record_event("promote", version, note)
            self._save_index()
            _LOGGER.info("promoted model %s (previous active: %s)", version, previous)
            return self.manifest(version)

    def record_rejection(self, version: str, reason: str) -> ModelManifest:
        """Mark a candidate as rejected (failed validation or canary)."""
        with self._lock:
            manifest = self.manifest(version)
            if manifest.status == "active":
                raise RegistryError(f"cannot reject the active version {version}")
            self._write_manifest(replace(manifest, status="rejected", note=reason))
            self._record_event("reject", version, reason)
            self._save_index()
            _LOGGER.warning("rejected model %s: %s", version, reason)
            return self.manifest(version)

    # -- reading ---------------------------------------------------------------------------------
    def versions(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._index["versions"])  # type: ignore[arg-type]

    @property
    def active(self) -> str | None:
        with self._lock:
            active = self._index.get("active")
            return None if active is None else str(active)

    def manifest(self, version: str) -> ModelManifest:
        path = self.root / version / _MANIFEST_NAME
        if version not in self.versions() or not path.exists():
            raise RegistryError(f"unknown model version {version!r}")
        return ModelManifest.from_json(_read_json(path))

    def artifact_path(self, version: str) -> Path:
        path = self.root / version / _ARTIFACT_NAME
        if version not in self.versions() or not path.exists():
            raise RegistryError(f"unknown model version {version!r}")
        return path

    def events(self) -> tuple[dict[str, object], ...]:
        """The append-only event log (register / promote / reject), oldest first."""
        with self._lock:
            return tuple(dict(event) for event in self._index["events"])  # type: ignore[arg-type]

    def diff(self, a: str, b: str) -> dict[str, object]:
        """Structured comparison of two versions (the ``models diff`` payload)."""
        left, right = self.manifest(a), self.manifest(b)
        metric_delta: dict[str, dict[str, float]] = {}
        for resource in sorted(set(left.metrics) | set(right.metrics)):
            lhs = left.metrics.get(resource, {})
            rhs = right.metrics.get(resource, {})
            # Deltas only where both sides measured the metric; raw per-side
            # values travel alongside for one-sided reporting.
            metric_delta[resource] = {
                metric: rhs[metric] - lhs[metric]
                for metric in sorted(set(lhs) & set(rhs))
            }
        return {
            "metrics": {"a": dict(left.metrics), "b": dict(right.metrics)},
            "a": a,
            "b": b,
            "identical_artifacts": left.checksum == right.checksum,
            "status": {"a": left.status, "b": right.status},
            "corpus_changed": left.corpus.get("digest") != right.corpus.get("digest"),
            "corpus": {"a": left.corpus, "b": right.corpus},
            "metrics_delta": metric_delta,
            "lineage": {"a_parent": left.parent, "b_parent": right.parent},
        }

    # -- internals -------------------------------------------------------------------------------
    def _write_manifest(self, manifest: ModelManifest) -> None:
        _write_json(self.root / manifest.version / _MANIFEST_NAME, manifest.to_json())

    def _record_event(self, kind: str, version: str, note: str) -> None:
        events = list(self._index["events"])  # type: ignore[arg-type]
        events.append(
            {"sequence": len(events), "event": kind, "version": version, "note": note}
        )
        self._index["events"] = events

    def _load_index(self) -> dict[str, object]:
        path = self.root / _INDEX_NAME
        if not path.exists():
            return {"versions": [], "active": None, "events": [], "next": 1}
        payload = _read_json(path)
        for key in ("versions", "events", "next"):
            if key not in payload:
                raise RegistryError(f"malformed registry index {path}: missing {key!r}")
        return payload

    def _save_index(self) -> None:
        _write_json(self.root / _INDEX_NAME, self._index)


def manifest_for_artifact(path: str | Path) -> ModelManifest | None:
    """The registry manifest of an artifact, if it lives inside a registry.

    ``models inspect`` calls this on any artifact path: when the file sits
    in a ``<registry>/<version>/`` directory (sibling ``manifest.json``,
    grandparent ``registry.json``), the manifest is returned; plain
    artifacts return ``None``.
    """
    artifact = Path(path)
    manifest_path = artifact.parent / _MANIFEST_NAME
    index_path = artifact.parent.parent / _INDEX_NAME
    if not manifest_path.exists() or not index_path.exists():
        return None
    try:
        return ModelManifest.from_json(_read_json(manifest_path))
    except (OSError, ValueError, KeyError) as exc:
        _LOGGER.warning("unreadable registry manifest %s: %s", manifest_path, exc)
        return None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_json(path: Path) -> dict[str, object]:
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise RegistryError(f"{path} does not contain a JSON object")
    return payload


def _write_json(path: Path, payload: dict[str, object]) -> None:
    """Atomic JSON write: temp file in the same directory, then rename."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
