"""Model persistence: compact size accounting and the full artifact codec.

Two encodings live here, serving two different purposes:

* the **compact encoding** (paper Section 7.3): a single regression tree
  with at most 10 leaves can be encoded in ~130 bytes (child offsets in one
  byte each, one byte for the split feature, 4-byte floats for thresholds
  and leaf estimates), so 1000 boosting iterations fit in ~127 KB and the
  full per-operator model collection in a few megabytes — independent of
  training set or data size.  ``serialize_tree`` / ``serialize_mart``
  implement exactly that encoding so the memory experiment can *measure*
  the paper's claim rather than assert it;

* the **artifact codec** (train-once / serve-many): a versioned container
  that round-trips a whole trained :class:`~repro.core.estimator.ResourceEstimator`
  — every :class:`~repro.core.combined_model.CombinedModel` with its scaling
  steps, model-selection state (training ranges, default-model designation),
  the feature mode and the fallback models — at full float64 precision, so a
  loaded estimator reproduces the in-memory estimator's outputs bit for bit.
  The artifact starts with a magic string, a format-version header and a
  CRC-32 of the body; :func:`load_estimator` fails loudly (with
  :class:`EstimatorCodecError`) on any mismatch instead of serving estimates
  from a corrupt or incompatible model.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.combined_model import CombinedModel
from repro.core.scaling import make_scaling_function
from repro.core.scaled_model import ScalingStep
from repro.core.trainer import OperatorModelSet, TrainerConfig
from repro.features.definitions import FeatureMode, OperatorFamily
from repro.ml.mart import MARTConfig, MARTRegressor
from repro.ml.regression_tree import RegressionTree, TreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.estimator import ResourceEstimator

__all__ = [
    "serialize_tree",
    "deserialize_tree",
    "serialize_mart",
    "mart_size_bytes",
    "combined_model_size_bytes",
    "model_set_size_bytes",
    "estimator_size_bytes",
    "ModelSizeReport",
    "EstimatorCodecError",
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "pack_envelope",
    "unpack_envelope",
    "estimator_to_bytes",
    "estimator_from_bytes",
    "save_estimator",
    "load_estimator",
]

#: Node record: child offset (1 byte), split feature (1 byte, 0xFF for leaf),
#: threshold or leaf value (4-byte float).
_NODE_FORMAT = "<BBf"
_NODE_BYTES = struct.calcsize(_NODE_FORMAT)
_LEAF_MARKER = 0xFF


def _flatten(node: TreeNode, nodes: list[TreeNode]) -> None:
    """Pre-order flattening; children are appended directly after the parent subtree."""
    nodes.append(node)
    if not node.is_leaf:
        assert node.left is not None and node.right is not None
        _flatten(node.left, nodes)
        _flatten(node.right, nodes)


def serialize_tree(tree: RegressionTree) -> bytes:
    """Encode a fitted regression tree into the paper's compact format."""
    if tree.root is None:
        raise ValueError("cannot serialize an unfitted tree")
    nodes: list[TreeNode] = []
    _flatten(tree.root, nodes)
    if len(nodes) > 0xFFFF:
        raise ValueError(
            f"tree has {len(nodes)} nodes, exceeding the 2-byte node-count limit"
        )
    index = {id(node): i for i, node in enumerate(nodes)}
    records = bytearray()
    records += struct.pack("<H", len(nodes))
    for i, node in enumerate(nodes):
        if node.is_leaf:
            records += struct.pack(_NODE_FORMAT, 0, _LEAF_MARKER, float(node.value))
        else:
            assert node.right is not None
            if not 0 <= node.feature < _LEAF_MARKER:
                raise ValueError(
                    f"split feature index {node.feature} does not fit the 1-byte "
                    f"encoding (must be in [0, {_LEAF_MARKER - 1}]; "
                    f"{_LEAF_MARKER:#x} marks a leaf)"
                )
            # Left child immediately follows its parent in pre-order, so only
            # the right child's offset needs to be stored.
            offset = index[id(node.right)] - i
            if offset > 255:
                raise ValueError(
                    f"flattened right-child offset {offset} exceeds the 1-byte "
                    "limit (255); the tree is too large for the compact encoding"
                )
            records += struct.pack(_NODE_FORMAT, offset, int(node.feature), float(node.threshold))
    return bytes(records)


def deserialize_tree(data: bytes) -> RegressionTree:
    """Decode a tree serialized by :func:`serialize_tree`."""
    (n_nodes,) = struct.unpack_from("<H", data, 0)
    records = []
    for i in range(n_nodes):
        offset, feature, value = struct.unpack_from(_NODE_FORMAT, data, 2 + i * _NODE_BYTES)
        records.append((offset, feature, value))

    def build(index: int) -> tuple[TreeNode, int]:
        offset, feature, value = records[index]
        if feature == _LEAF_MARKER:
            return TreeNode(value=float(value)), index + 1
        left, _ = build(index + 1)
        right, next_index = build(index + offset)
        node = TreeNode(value=0.0, feature=int(feature), threshold=float(value),
                        left=left, right=right)
        return node, next_index

    root, _ = build(0)
    tree = RegressionTree()
    tree.root = root
    return tree


def serialize_mart(model: MARTRegressor) -> bytes:
    """Encode a MART ensemble (initial prediction + all trees)."""
    payload = bytearray()
    payload += struct.pack("<fI", float(model.initial_prediction_), len(model.trees_))
    for tree in model.trees_:
        tree_bytes = serialize_tree(tree)
        payload += struct.pack("<H", len(tree_bytes))
        payload += tree_bytes
    return bytes(payload)


def mart_size_bytes(model: MARTRegressor) -> int:
    """Size of the compact encoding of a MART ensemble."""
    return len(serialize_mart(model))


def combined_model_size_bytes(model: CombinedModel) -> int:
    """Size of a combined model: the MART ensemble plus scaling metadata."""
    if model.model_ is None:
        return 0
    size = mart_size_bytes(model.model_)
    # Scaling metadata: one byte for the feature id and one for the function
    # id per scaling step, plus the stored training ranges (two 4-byte floats
    # per input feature).
    size += 2 * len(model.steps)
    size += 8 * len(model.input_features_)
    return size


def model_set_size_bytes(model_set: OperatorModelSet) -> int:
    """Total size of all models stored for one (family, resource) pair."""
    return sum(combined_model_size_bytes(m) for m in model_set.models)


def estimator_size_bytes(estimator: "ResourceEstimator") -> int:
    """Total size of every model stored by a trained ResourceEstimator."""
    return sum(model_set_size_bytes(ms) for ms in estimator.model_sets.values())


@dataclass(frozen=True)
class ModelSizeReport:
    """Summary used by the Section 7.3 memory experiment."""

    n_model_sets: int
    n_models: int
    total_bytes: int
    largest_single_model_bytes: int

    @classmethod
    def for_estimator(cls, estimator: "ResourceEstimator") -> "ModelSizeReport":
        sizes = [
            combined_model_size_bytes(model)
            for model_set in estimator.model_sets.values()
            for model in model_set.models
        ]
        return cls(
            n_model_sets=len(estimator.model_sets),
            n_models=len(sizes),
            total_bytes=int(sum(sizes)),
            largest_single_model_bytes=int(max(sizes)) if sizes else 0,
        )


# ---------------------------------------------------------------------------
# Artifact codec: full round-trip persistence of a trained ResourceEstimator
# ---------------------------------------------------------------------------

#: Leading magic of every estimator artifact (8 bytes).
ARTIFACT_MAGIC = b"RPROEST\x00"
#: The artifact format version, the only one written or read.  Bumped on any
#: incompatible layout change; :func:`load_estimator` refuses every other
#: version instead of guessing.  The layout stores the flat structure-of-arrays
#: ensembles (little-endian, 8-byte aligned), so loading can
#: ``frombuffer``/mmap the inference arrays directly, plus the ``robustness``
#: metadata section (feature envelopes, per-family rates, scaling fallbacks).
ARTIFACT_VERSION = 3

#: Shared envelope after the magic: format version (u16), CRC-32 of the
#: body (u32).  Both the native codec and the technique-adapter artifacts
#: (:mod:`repro.api.adapters`) frame their payload with it.
_ENVELOPE_HEADER = "<HI"
_ENVELOPE_HEADER_BYTES = struct.calcsize(_ENVELOPE_HEADER)


class EstimatorCodecError(ValueError):
    """A model artifact could not be decoded (corrupt, truncated or wrong version)."""


def pack_envelope(magic: bytes, version: int, body: bytes) -> bytes:
    """Frame ``body`` as ``magic + version + crc32(body) + body``."""
    return magic + struct.pack(_ENVELOPE_HEADER, version, zlib.crc32(body)) + body


def unpack_envelope(
    data: "bytes | memoryview", magic: bytes, version: int, kind: str
) -> "tuple[int, bytes | memoryview]":
    """Validate an artifact envelope and return ``(version, body)`` (strict).

    ``version`` is the one accepted format version.  Raises
    :class:`EstimatorCodecError` on a wrong magic, any other format version,
    or a CRC mismatch (flipped or truncated bytes anywhere in the body).
    ``kind`` labels the artifact family in error messages.  ``data`` may be
    a ``memoryview`` (e.g. over an ``mmap``), in which case the returned
    body is a zero-copy view.
    """
    prefix = len(magic)
    if len(data) < prefix + _ENVELOPE_HEADER_BYTES:
        raise EstimatorCodecError(
            f"{kind} artifact is truncated ({len(data)} bytes; smaller than the header)"
        )
    if data[:prefix] != magic:
        raise EstimatorCodecError(
            f"not a repro {kind} artifact (bad magic); refusing to load"
        )
    got_version, crc = struct.unpack_from(_ENVELOPE_HEADER, data, prefix)
    if got_version != version:
        raise EstimatorCodecError(
            f"unsupported {kind} artifact format version {got_version}; this build "
            f"reads version {version} only — retrain and re-save the model"
        )
    body = data[prefix + _ENVELOPE_HEADER_BYTES :]
    if zlib.crc32(body) != crc:
        raise EstimatorCodecError(
            f"{kind} artifact checksum mismatch: the file is corrupt or was truncated"
        )
    return int(got_version), body


def _encode_mart_flat(model: MARTRegressor) -> bytes:
    """Encode a MART ensemble as its compiled flat arrays, little-endian, aligned.

    Layout (all offsets 8-byte aligned relative to the blob start, which the
    writer itself aligns within the artifact):

    ========================  =======================================
    ``<dII``                  initial prediction, n_features, n_trees
    ``<f8 x n_features`` x2   training lows, training highs
    ``<II``                   n_nodes, reserved padding (0)
    ``<i8 x n_trees``         tree root offsets
    ``<f8 x n_nodes``         thresholds
    ``<f8 x n_nodes``         leaf values
    ``<i4 x n_nodes`` x3      feature ids (-1 = leaf), left, right
    ========================  =======================================

    The 8-byte arrays precede the 4-byte ones so every array keeps natural
    alignment and the decoder can ``frombuffer`` (or mmap) them in place.
    """
    if model.n_features_ is None or model.feature_range_ is None:
        raise ValueError("cannot serialize an unfitted MART model")
    forest = model.flat_forest()
    lows, highs = model.feature_range_
    out = bytearray(
        struct.pack(
            "<dII", float(model.initial_prediction_), model.n_features_, forest.n_trees
        )
    )
    out += np.asarray(lows, dtype="<f8").tobytes()
    out += np.asarray(highs, dtype="<f8").tobytes()
    out += struct.pack("<II", forest.n_nodes, 0)
    out += np.ascontiguousarray(forest.tree_roots, dtype="<i8").tobytes()
    out += np.ascontiguousarray(forest.threshold, dtype="<f8").tobytes()
    out += np.ascontiguousarray(forest.leaf_value, dtype="<f8").tobytes()
    out += np.ascontiguousarray(forest.feature_id, dtype="<i4").tobytes()
    out += np.ascontiguousarray(forest.left, dtype="<i4").tobytes()
    out += np.ascontiguousarray(forest.right, dtype="<i4").tobytes()
    return bytes(out)


def _decode_mart_flat(data: "bytes | memoryview", config: MARTConfig) -> MARTRegressor:
    """Decode a flat MART blob without materialising any ``TreeNode``.

    The node arrays are ``frombuffer`` views over ``data`` (zero-copy when
    the caller hands in a memoryview over the file or an mmap); structural
    validity — pre-order child offsets, in-range features, tree boundaries —
    is checked with vectorised comparisons before the model is accepted.
    """
    from repro.ml.flat_ensemble import FlatForest

    prefix = struct.calcsize("<dII")
    initial, n_features, n_trees = struct.unpack_from("<dII", data, 0)
    pos = prefix
    lows = np.frombuffer(data, dtype="<f8", count=n_features, offset=pos).copy()
    pos += 8 * n_features
    highs = np.frombuffer(data, dtype="<f8", count=n_features, offset=pos).copy()
    pos += 8 * n_features
    n_nodes, _reserved = struct.unpack_from("<II", data, pos)
    pos += 8
    expected = pos + 8 * n_trees + (8 + 8 + 4 + 4 + 4) * n_nodes
    if expected != len(data):
        raise EstimatorCodecError(
            f"flat MART payload is {len(data)} bytes, expected {expected}"
        )
    tree_roots = np.frombuffer(data, dtype="<i8", count=n_trees, offset=pos)
    pos += 8 * n_trees
    threshold = np.frombuffer(data, dtype="<f8", count=n_nodes, offset=pos)
    pos += 8 * n_nodes
    leaf_value = np.frombuffer(data, dtype="<f8", count=n_nodes, offset=pos)
    pos += 8 * n_nodes
    feature_id = np.frombuffer(data, dtype="<i4", count=n_nodes, offset=pos)
    pos += 4 * n_nodes
    left = np.frombuffer(data, dtype="<i4", count=n_nodes, offset=pos)
    pos += 4 * n_nodes
    right = np.frombuffer(data, dtype="<i4", count=n_nodes, offset=pos)
    try:
        forest = FlatForest(
            feature_id=feature_id,
            threshold=threshold,
            left=left,
            right=right,
            leaf_value=leaf_value,
            tree_roots=tree_roots,
            learning_rate=config.learning_rate,
            init_=float(initial),
            n_features=int(n_features),
            validate=True,
        )
    except ValueError as exc:
        raise EstimatorCodecError(f"malformed flat ensemble: {exc}") from exc
    model = MARTRegressor(config)
    model.initial_prediction_ = float(initial)
    model.n_features_ = int(n_features)
    model.feature_range_ = (lows, highs)
    model._set_compiled(forest)
    return model


def _mart_config_record(config: MARTConfig) -> dict:
    return {
        "n_iterations": config.n_iterations,
        "max_leaves": config.max_leaves,
        "learning_rate": config.learning_rate,
        "subsample": config.subsample,
        "min_samples_leaf": config.min_samples_leaf,
        "random_seed": config.random_seed,
    }


def _trainer_config_record(config: TrainerConfig | None) -> dict | None:
    if config is None:
        return None
    return {
        "mart": _mart_config_record(config.mart),
        "min_training_rows": config.min_training_rows,
        "max_pair_models": config.max_pair_models,
        "enable_pair_scaling": config.enable_pair_scaling,
    }


def _trainer_config_from_record(record: dict | None) -> TrainerConfig | None:
    if record is None:
        return None
    return TrainerConfig(
        mart=MARTConfig(**record["mart"]),
        min_training_rows=record["min_training_rows"],
        max_pair_models=record["max_pair_models"],
        enable_pair_scaling=record["enable_pair_scaling"],
    )


def _combined_model_record(model: CombinedModel, payload: bytearray) -> dict:
    """Append the model's MART weights to ``payload``; return its JSON record."""
    if model.model_ is None:
        raise ValueError(f"cannot serialize untrained combined model {model.name}")
    # Pad so the blob (and therefore its 8-byte arrays) stays aligned; the
    # writer aligns the payload start within the artifact to match.
    payload += b"\x00" * (-len(payload) % 8)
    blob = _encode_mart_flat(model.model_)
    offset = len(payload)
    payload += blob
    return {
        "feature_names": list(model.feature_names),
        "steps": [
            {"feature": step.feature, "function": step.function.name}
            for step in model.steps
        ],
        "mart_config": _mart_config_record(model.mart_config),
        "training_low": model.training_low_,
        "training_high": model.training_high_,
        "training_error": model.training_error_,
        "n_training_rows": model.n_training_rows_,
        "scaled_target_low": model.scaled_target_low_,
        "scaled_target_high": model.scaled_target_high_,
        "blob_offset": offset,
        "blob_length": len(blob),
    }


def _combined_model_from_record(
    record: dict,
    family: OperatorFamily,
    resource: str,
    payload: "bytes | memoryview",
) -> CombinedModel:
    steps = tuple(
        ScalingStep(feature=s["feature"], function=make_scaling_function(s["function"]))
        for s in record["steps"]
    )
    model = CombinedModel(
        family=family,
        resource=resource,
        feature_names=tuple(record["feature_names"]),
        steps=steps,
        mart_config=MARTConfig(**record["mart_config"]),
    )
    start, length = record["blob_offset"], record["blob_length"]
    if start < 0 or start + length > len(payload):
        raise EstimatorCodecError("model weight blob lies outside the artifact payload")
    model.model_ = _decode_mart_flat(payload[start : start + length], model.mart_config)
    model.training_low_ = {k: float(v) for k, v in record["training_low"].items()}
    model.training_high_ = {k: float(v) for k, v in record["training_high"].items()}
    model.training_error_ = float(record["training_error"])
    model.n_training_rows_ = int(record["n_training_rows"])
    model.scaled_target_low_ = float(record["scaled_target_low"])
    model.scaled_target_high_ = float(record["scaled_target_high"])
    return model


def estimator_to_bytes(estimator: "ResourceEstimator") -> bytes:
    """Serialize a trained ResourceEstimator into an :data:`ARTIFACT_VERSION` artifact.

    The ensembles are stored as flat structure-of-arrays blobs with 8-byte
    alignment, so the loader can frombuffer/mmap the inference arrays.
    """
    payload = bytearray()
    model_sets = []
    for (family, resource), model_set in estimator.model_sets.items():
        records = [_combined_model_record(model, payload) for model in model_set.models]
        try:
            default_index = next(
                i for i, m in enumerate(model_set.models) if m is model_set.default_model
            )
        except StopIteration:
            # Degenerate (hand-built) set whose default is not among models.
            records.append(_combined_model_record(model_set.default_model, payload))
            default_index = len(records) - 1
        model_sets.append(
            {
                "family": family.value,
                "resource": resource,
                "default_index": default_index,
                "models": records,
            }
        )
    header = {
        "format": "repro-estimator",
        "feature_mode": estimator.feature_mode.value,
        "resources": list(estimator.resources),
        "fallbacks": {
            resource: fallback.per_tuple
            for resource, fallback in estimator.fallbacks.items()
        },
        "trainer_config": _trainer_config_record(estimator.trainer_config),
        "model_sets": model_sets,
        "robustness": _robustness_record(estimator),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    # Pad the JSON (trailing whitespace is legal) so the payload lands on an
    # 8-byte boundary of the file: magic (8) + envelope header (6) + length
    # prefix (4) + header must be a multiple of 8 for the blob arrays to be
    # naturally aligned when the artifact is mmap'd.
    fixed = len(ARTIFACT_MAGIC) + _ENVELOPE_HEADER_BYTES + 4
    header_bytes += b" " * (-(fixed + len(header_bytes)) % 8)
    body = struct.pack("<I", len(header_bytes)) + header_bytes + bytes(payload)
    return pack_envelope(ARTIFACT_MAGIC, ARTIFACT_VERSION, body)


def _robustness_record(estimator: "ResourceEstimator") -> dict:
    """The robustness metadata section (pure JSON)."""
    return {
        "envelopes": [env.record() for env in estimator.envelopes.values()],
        "family_rates": [
            {"family": family.value, "resource": resource, "rate": float(rate)}
            for (family, resource), rate in estimator.family_rates.items()
        ],
        "scaling_fallbacks": [
            {"family": family.value, "resource": resource, **fallback.record()}
            for (family, resource), fallback in estimator.scaling_fallbacks.items()
        ],
    }


def _apply_robustness_record(estimator: "ResourceEstimator", record: dict) -> None:
    """Populate the robustness sections from their (required) header record."""
    from repro.robustness.degradation import ScalingFallback
    from repro.robustness.envelope import FeatureEnvelope

    for env_record in record["envelopes"]:
        envelope = FeatureEnvelope.from_record(env_record)
        estimator.envelopes[envelope.family] = envelope
    for rate_record in record["family_rates"]:
        key = (OperatorFamily(rate_record["family"]), str(rate_record["resource"]))
        estimator.family_rates[key] = float(rate_record["rate"])
    for fb_record in record["scaling_fallbacks"]:
        key = (OperatorFamily(fb_record["family"]), str(fb_record["resource"]))
        estimator.scaling_fallbacks[key] = ScalingFallback.from_record(fb_record)


def estimator_from_bytes(data: "bytes | bytearray | memoryview") -> "ResourceEstimator":
    """Reconstruct a ResourceEstimator from artifact bytes (strict, versioned).

    Raises :class:`EstimatorCodecError` on a wrong magic, a format version
    other than :data:`ARTIFACT_VERSION`, a CRC mismatch (flipped or
    truncated bytes anywhere in the body) or a structurally invalid metadata
    section, including a missing ``robustness`` section.  ``data`` may be a
    ``memoryview`` over an mmap'd file, in which case the inference arrays
    are zero-copy views into the mapping.
    """
    from repro.core.estimator import ResourceEstimator, _FallbackModel

    view = data if isinstance(data, memoryview) else memoryview(bytes(data))
    _, body = unpack_envelope(view, ARTIFACT_MAGIC, ARTIFACT_VERSION, "estimator")
    if len(body) < 4:
        raise EstimatorCodecError("artifact body is truncated")
    (header_len,) = struct.unpack_from("<I", body, 0)
    if header_len > len(body) - 4:
        raise EstimatorCodecError("artifact metadata length exceeds the body size")
    try:
        header = json.loads(bytes(body[4 : 4 + header_len]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise EstimatorCodecError(f"invalid artifact metadata: {exc}") from exc
    if header.get("format") != "repro-estimator":
        raise EstimatorCodecError("artifact metadata does not describe an estimator")
    payload = body[4 + header_len :]

    try:
        estimator = ResourceEstimator(
            feature_mode=FeatureMode(header["feature_mode"]),
            resources=tuple(header["resources"]),
            trainer_config=_trainer_config_from_record(header.get("trainer_config")),
        )
        for resource, per_tuple in header["fallbacks"].items():
            estimator.fallbacks[resource] = _FallbackModel(per_tuple=float(per_tuple))
        for set_record in header["model_sets"]:
            family = OperatorFamily(set_record["family"])
            resource = set_record["resource"]
            models = [
                _combined_model_from_record(record, family, resource, payload)
                for record in set_record["models"]
            ]
            default_index = int(set_record["default_index"])
            if not 0 <= default_index < len(models):
                raise EstimatorCodecError(
                    f"default model index {default_index} out of range for "
                    f"{family.value}/{resource}"
                )
            estimator.model_sets[(family, resource)] = OperatorModelSet(
                family=family,
                resource=resource,
                models=models,
                default_model=models[default_index],
            )
        _apply_robustness_record(estimator, header["robustness"])
    except EstimatorCodecError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, struct.error) as exc:
        raise EstimatorCodecError(f"structurally invalid artifact: {exc}") from exc
    return estimator


def save_estimator(estimator: "ResourceEstimator", path: str | Path) -> Path:
    """Write a trained estimator to ``path`` as a versioned artifact.

    The artifact is written to a temp file in the same directory, then
    renamed over ``path``: readers never see a partial file, and a process
    that memory-mapped the previous artifact keeps its (now unlinked) inode
    instead of faulting on a truncated one.
    """
    path = Path(path)
    data = estimator_to_bytes(estimator)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return path


def mmap_artifact(path: str | Path) -> memoryview:
    """A read-only zero-copy view over an artifact file.

    Returns a memoryview over an ``mmap.ACCESS_READ`` mapping; the mapping
    stays alive for as long as any decoded array references it.  Falls back
    to reading the file when it cannot be mapped (empty file, filesystems
    without mmap support).
    """
    import mmap as _mmap

    path = Path(path)
    with path.open("rb") as handle:
        try:
            mapped = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
        except (ValueError, OSError):
            return memoryview(path.read_bytes())
    return memoryview(mapped)


def load_estimator(path: str | Path, mmap: bool = False) -> "ResourceEstimator":
    """Load an estimator artifact written by :func:`save_estimator` (strict).

    With ``mmap=True`` the file is memory-mapped and the inference arrays
    become zero-copy views into the mapping (pages fault in on first use
    instead of being read up front).
    """
    path = Path(path)
    try:
        data: "bytes | memoryview" = mmap_artifact(path) if mmap else path.read_bytes()
    except OSError as exc:
        raise EstimatorCodecError(f"cannot read artifact {path}: {exc}") from exc
    return estimator_from_bytes(data)

