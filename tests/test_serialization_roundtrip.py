"""Round-trip persistence of trained estimators (the artifact codec).

The train-once / serve-many contract is that a loaded artifact is
indistinguishable from the estimator that produced it: ``load(save(e))``
must reproduce *bit-identical* ``estimate_workload`` outputs.  These tests
pin that property on TPC-H and TPC-DS plans for both resources, and check
that structurally damaged or version-incompatible artifacts fail loudly
instead of silently serving garbage estimates.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.core import ResourceEstimator
from repro.core.serialization import (
    ARTIFACT_MAGIC,
    ARTIFACT_VERSION,
    EstimatorCodecError,
    estimator_from_bytes,
    estimator_to_bytes,
    load_estimator,
    save_estimator,
    serialize_tree,
)
from repro.features.definitions import FeatureMode
from repro.ml.regression_tree import RegressionTree, TreeNode
from repro.workloads.datasets import build_training_data, split_workload
from repro.workloads.tpcds import build_tpcds_workload

RESOURCES = ("cpu", "io")


@pytest.fixture(scope="module")
def tpcds_split():
    workload = build_tpcds_workload(scale_factor=0.1, skew_z=0.8, n_queries=30, seed=19)
    return split_workload(workload, train_fraction=0.75, seed=5)


@pytest.fixture(scope="module")
def tpcds_estimator(tpcds_split, tiny_trainer_config):
    train, _ = tpcds_split
    training_data = build_training_data(train, FeatureMode.EXACT)
    return ResourceEstimator.train(
        training_data, FeatureMode.EXACT, resources=RESOURCES, config=tiny_trainer_config
    )


def _assert_bit_identical(original: ResourceEstimator, restored: ResourceEstimator, plans):
    """Every granularity of estimate_workload must match exactly (== not approx)."""
    for resource in RESOURCES:
        a = original.estimate_workload(plans, (resource,))
        b = restored.estimate_workload(plans, (resource,))
        assert np.array_equal(a.query_totals(resource), b.query_totals(resource))
        for index in range(len(plans)):
            assert a.operators(index, resource) == b.operators(index, resource)
            assert a.pipelines(index, resource) == b.pipelines(index, resource)


class TestRoundTrip:
    def test_tpch_bit_identical(self, trained_estimator, workload_split):
        _, test = workload_split
        restored = estimator_from_bytes(estimator_to_bytes(trained_estimator))
        _assert_bit_identical(trained_estimator, restored, [q.plan for q in test])

    def test_tpcds_bit_identical(self, tpcds_estimator, tpcds_split):
        _, test = tpcds_split
        restored = estimator_from_bytes(estimator_to_bytes(tpcds_estimator))
        _assert_bit_identical(tpcds_estimator, restored, [q.plan for q in test])

    def test_file_round_trip(self, trained_estimator, workload_split, tmp_path):
        _, test = workload_split
        path = tmp_path / "model.bin"
        save_estimator(trained_estimator, path)
        restored = load_estimator(path)
        _assert_bit_identical(trained_estimator, restored, [q.plan for q in test[:4]])

    def test_save_replaces_a_mapped_artifact(self, trained_estimator, workload_split, tmp_path):
        """Re-saving over a memory-mapped artifact swaps in a new file, so the
        mapping keeps reading the old bytes instead of a truncated inode."""
        _, test = workload_split
        plans = [q.plan for q in test[:4]]
        path = tmp_path / "model.bin"
        save_estimator(trained_estimator, path)
        mapped = load_estimator(path, mmap=True)
        inode = os.stat(path).st_ino
        save_estimator(ResourceEstimator(), path)  # a far smaller artifact
        # Checked before the mapping is read again: rewritten in place, the
        # mapped pages past the new end of file would raise SIGBUS.
        assert os.stat(path).st_ino != inode
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        for resource in RESOURCES:
            assert np.array_equal(
                mapped.estimate_workload(plans, (resource,)).query_totals(resource),
                trained_estimator.estimate_workload(plans, (resource,)).query_totals(resource),
            )

    def test_estimator_save_load_methods(self, trained_estimator, workload_split, tmp_path):
        _, test = workload_split
        path = tmp_path / "model.bin"
        trained_estimator.save(path)
        restored = ResourceEstimator.load(path)
        _assert_bit_identical(trained_estimator, restored, [q.plan for q in test[:4]])

    def test_metadata_preserved(self, trained_estimator):
        restored = estimator_from_bytes(estimator_to_bytes(trained_estimator))
        assert restored.feature_mode is trained_estimator.feature_mode
        assert restored.resources == trained_estimator.resources
        assert set(restored.model_sets) == set(trained_estimator.model_sets)
        for key, model_set in trained_estimator.model_sets.items():
            restored_set = restored.model_sets[key]
            assert restored_set.n_models == model_set.n_models
            assert (
                restored_set.default_model.name == model_set.default_model.name
            )
            for a, b in zip(model_set.models, restored_set.models):
                assert a.feature_names == b.feature_names
                assert a.scaling_feature_names == b.scaling_feature_names
                assert a.training_low_ == b.training_low_
                assert a.training_high_ == b.training_high_
        for resource in RESOURCES:
            assert (
                restored.fallbacks[resource].per_tuple
                == trained_estimator.fallbacks[resource].per_tuple
            )

    def test_trainer_config_round_trips(self, trained_estimator, tiny_trainer_config):
        restored = estimator_from_bytes(estimator_to_bytes(trained_estimator))
        assert restored.trainer_config == tiny_trainer_config

    def test_robustness_metadata_round_trips(self, trained_estimator):
        """Envelopes, family rates and scaling fallbacks survive the codec exactly."""
        restored = estimator_from_bytes(estimator_to_bytes(trained_estimator))
        assert set(restored.envelopes) == set(trained_estimator.envelopes)
        assert trained_estimator.envelopes  # the fixture trains non-trivially
        for family, envelope in trained_estimator.envelopes.items():
            loaded = restored.envelopes[family]
            assert loaded.feature_names == envelope.feature_names
            assert np.array_equal(loaded.low, envelope.low)
            assert np.array_equal(loaded.high, envelope.high)
            assert np.array_equal(loaded.q05, envelope.q05)
            assert np.array_equal(loaded.q50, envelope.q50)
            assert np.array_equal(loaded.q95, envelope.q95)
            assert loaded.n_rows == envelope.n_rows
        assert restored.family_rates == trained_estimator.family_rates
        assert restored.scaling_fallbacks == trained_estimator.scaling_fallbacks
        assert trained_estimator.family_rates and trained_estimator.scaling_fallbacks


class TestStrictLoading:
    @pytest.fixture(scope="class")
    def artifact(self, trained_estimator) -> bytes:
        return estimator_to_bytes(trained_estimator)

    def test_bad_magic_rejected(self, artifact):
        data = b"NOTMAGIC" + artifact[8:]
        with pytest.raises(EstimatorCodecError, match="magic"):
            estimator_from_bytes(data)

    def test_wrong_version_rejected(self, artifact):
        """The retired node-record layouts (1, 2) fail like a future one."""
        for version in (1, 2, ARTIFACT_VERSION + 1):
            data = artifact[:8] + struct.pack("<H", version) + artifact[10:]
            with pytest.raises(EstimatorCodecError, match="retrain"):
                estimator_from_bytes(data)

    def test_truncated_artifact_rejected(self, artifact):
        for cut in (4, 12, len(artifact) // 2, len(artifact) - 1):
            with pytest.raises(EstimatorCodecError):
                estimator_from_bytes(artifact[:cut])

    @pytest.mark.parametrize("position_fraction", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_flipped_byte_anywhere_rejected(self, artifact, position_fraction):
        """The body checksum catches corruption in metadata and weights alike."""
        corrupted = bytearray(artifact)
        position = 14 + int((len(artifact) - 15) * position_fraction)
        corrupted[position] ^= 0xFF
        with pytest.raises(EstimatorCodecError):
            estimator_from_bytes(bytes(corrupted))

    def test_not_an_artifact_file(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(EstimatorCodecError):
            load_estimator(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EstimatorCodecError):
            load_estimator(tmp_path / "does_not_exist.bin")

    def test_crc_valid_but_malformed_flat_arrays_rejected(self, trained_estimator):
        """Version-3 flat arrays get the same strict structural validation:
        a right-child offset pointing past the tree must fail as a codec
        error even though the checksum is intact."""
        import json

        from repro.core.serialization import pack_envelope, unpack_envelope

        artifact = estimator_to_bytes(trained_estimator)
        _, body_bytes = unpack_envelope(
            artifact, ARTIFACT_MAGIC, ARTIFACT_VERSION, "estimator"
        )
        body = bytearray(body_bytes)
        (header_len,) = struct.unpack_from("<I", body, 0)
        header = json.loads(body[4 : 4 + header_len])
        payload_start = 4 + header_len
        record = header["model_sets"][0]["models"][0]
        mart_off = payload_start + record["blob_offset"]
        (_, n_features, n_trees) = struct.unpack_from("<dII", body, mart_off)
        counts_off = mart_off + struct.calcsize("<dII") + 16 * n_features
        (n_nodes, _) = struct.unpack_from("<II", body, counts_off)
        right_off = (
            counts_off + 8 + 8 * n_trees + 16 * n_nodes + 8 * n_nodes
        )  # roots + thresholds/values + feature/left arrays
        (root_feature,) = struct.unpack_from(
            "<i", body, counts_off + 8 + 8 * n_trees + 16 * n_nodes
        )
        if root_feature < 0:
            pytest.skip("first tree is a stump")
        struct.pack_into("<i", body, right_off, n_nodes + 7)
        rebuilt = pack_envelope(ARTIFACT_MAGIC, ARTIFACT_VERSION, bytes(body))
        with pytest.raises(EstimatorCodecError, match="flat ensemble"):
            estimator_from_bytes(rebuilt)

    def test_missing_robustness_section_rejected(self, artifact):
        """The robustness section is required: a CRC-valid artifact without it
        is refused instead of loading with empty envelopes."""
        import json

        from repro.core.serialization import pack_envelope, unpack_envelope

        _, body_bytes = unpack_envelope(
            artifact, ARTIFACT_MAGIC, ARTIFACT_VERSION, "estimator"
        )
        body = bytearray(body_bytes)
        (header_len,) = struct.unpack_from("<I", body, 0)
        header = json.loads(body[4 : 4 + header_len])
        del header["robustness"]
        stripped = json.dumps(header, separators=(",", ":")).encode("utf-8")
        # Pad back to the old length so the payload offsets stay valid.
        body[4 : 4 + header_len] = stripped.ljust(header_len)
        rebuilt = pack_envelope(ARTIFACT_MAGIC, ARTIFACT_VERSION, bytes(body))
        with pytest.raises(EstimatorCodecError, match="robustness"):
            estimator_from_bytes(rebuilt)

    def test_magic_is_stable(self, artifact):
        """The on-disk prefix is part of the format contract."""
        assert artifact.startswith(ARTIFACT_MAGIC)
        (version,) = struct.unpack_from("<H", artifact, len(ARTIFACT_MAGIC))
        assert version == ARTIFACT_VERSION


class TestCompactEncodingGuards:
    """serialize_tree must reject trees its 1-byte fields cannot express."""

    @staticmethod
    def _leaf(value: float = 1.0) -> TreeNode:
        return TreeNode(value=value)

    def _tree_with_feature(self, feature: int) -> RegressionTree:
        tree = RegressionTree()
        tree.root = TreeNode(
            value=0.0, feature=feature, threshold=1.0,
            left=self._leaf(), right=self._leaf(),
        )
        return tree

    @pytest.mark.parametrize("feature", [255, 256, 300, 10_000])
    def test_oversized_feature_index_rejected(self, feature):
        """0xFF marks a leaf, so feature indices above 254 must raise, not corrupt."""
        with pytest.raises(ValueError, match="feature index"):
            serialize_tree(self._tree_with_feature(feature))

    def test_feature_254_is_still_encodable(self):
        data = serialize_tree(self._tree_with_feature(254))
        assert len(data) > 0

    def test_oversized_child_offset_rejected(self):
        """A >255-node left subtree pushes the right-child offset past 1 byte."""
        # Left-deep chain: each internal node's left child is the next internal
        # node, so the root's right child sits after the entire left subtree.
        deep = self._leaf()
        for i in range(130):
            deep = TreeNode(value=0.0, feature=1, threshold=float(i),
                            left=deep, right=self._leaf())
        tree = RegressionTree()
        tree.root = TreeNode(value=0.0, feature=2, threshold=0.5,
                             left=deep, right=self._leaf())
        with pytest.raises(ValueError, match="offset"):
            serialize_tree(tree)
