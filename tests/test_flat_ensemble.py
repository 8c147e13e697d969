"""Bit-identical parity: compiled flat-array kernels vs per-tree node walks.

The flat kernels (:mod:`repro.ml.flat_ensemble`) must reproduce the
sequential per-tree fold *bitwise* — same routing on NaN/inf features, same
floating-point accumulation order — across real workloads (TPC-H and the
cross-schema TPC-DS set) and hand-built edge-case trees, and survive the
artifact round trip (the arrays load directly, optionally memory-mapped).
That holds for a single forest and for the forest bank the estimator serves
every selected model from in one call, which is also checked for one call
per estimate and for concurrent first calls and model-set swaps.  The
estimates served through the bank equal the per-model path of
``tests/reference.py`` bit for bit.
"""

from __future__ import annotations

import copy
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import EstimationService
from repro.core import ResourceEstimator
from repro.core.combined_model import CombinedModel
from repro.core.serialization import load_estimator, save_estimator
from repro.features.definitions import FeatureMode
from repro.features.extractor import group_by_family
from repro.ml import flat_ensemble
from repro.ml.flat_ensemble import FlatForest, ForestBank, compile_mart, compile_transform
from repro.ml.mart import MARTConfig, MARTRegressor
from repro.ml.regression_tree import RegressionTree, TreeNode
from repro.ml.transform_regression import TransformRegressor
from repro.robustness import FaultInjector
from repro.workloads.datasets import build_training_data, split_workload
from repro.workloads.tpcds import build_tpcds_workload

from reference import model_set_predict_batch


@pytest.fixture(scope="module")
def tpch_test_plans(workload_split):
    _, test = workload_split
    return [query.plan for query in test]


@pytest.fixture(scope="module")
def tpcds_plans():
    workload = build_tpcds_workload(
        scale_factor=0.05, skew_z=0.8, n_queries=16, seed=5
    )
    return [query.plan for query in workload.queries]


@pytest.fixture(scope="module")
def fitted_mart(rng_matrix):
    features, targets = rng_matrix
    model = MARTRegressor(
        MARTConfig(n_iterations=30, max_leaves=8, learning_rate=0.12, subsample=0.8)
    )
    return model.fit(features, targets)


@pytest.fixture(scope="module")
def rng_matrix():
    rng = np.random.default_rng(17)
    features = rng.uniform(0.0, 1000.0, size=(400, 6))
    targets = features[:, 0] * 3.0 + features[:, 1] ** 1.5 + rng.normal(0, 5, 400)
    return features, targets


@pytest.fixture(scope="module")
def tpcds_estimator(tiny_trainer_config):
    workload = build_tpcds_workload(scale_factor=0.05, skew_z=0.8, n_queries=24, seed=5)
    train, _ = split_workload(workload, train_fraction=0.75, seed=3)
    return ResourceEstimator.train(
        build_training_data(train, FeatureMode.EXACT),
        FeatureMode.EXACT,
        resources=("cpu", "io"),
        config=tiny_trainer_config,
    )


def rows_by_family(estimator, plans):
    """The estimator's per-family rows of ``plans``."""
    return group_by_family([estimator.extract_plan_features(plan) for plan in plans])


def walked_bank_predict(bank, blocks):
    """Reference :meth:`ForestBank.predict`: each row through its model's node walk."""
    walked = []
    for rows, ids in blocks:
        rows = np.asarray(rows, dtype=np.float64)
        out = np.empty(len(ids), dtype=np.float64)
        for model_id in np.unique(ids):
            mask = ids == model_id
            out[mask] = bank.models[model_id].predict_per_tree(
                rows[mask][:, bank.columns[model_id]]
            )
        walked.append(out)
    return walked


class TestWorkloadParity:
    """Flat kernel == node walk, and served == per-model path, over real plans."""

    def _family_matrices(self, estimator, plans):
        return {family: rows.matrix for family, rows in rows_by_family(estimator, plans).items()}

    @pytest.mark.parametrize("resource", ["cpu", "io"])
    def test_model_level_parity_tpch(self, trained_estimator, tpch_test_plans, resource):
        matrices = self._family_matrices(trained_estimator, tpch_test_plans)
        checked = 0
        for (family, res), model_set in trained_estimator.model_sets.items():
            if res != resource or family not in matrices:
                continue
            for combined in [*model_set.models, model_set.default_model]:
                transformed = combined.transform_matrix(matrices[family])
                assert np.array_equal(
                    combined.model_.predict(transformed),
                    combined.model_.predict_per_tree(transformed),
                )
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("plans_name", ["tpch_test_plans", "tpcds_plans"])
    def test_served_estimates_match_per_model_path(
        self, request, trained_estimator, plans_name
    ):
        """The bank-served estimates of every set == the per-model reference path."""
        matrices = self._family_matrices(trained_estimator, request.getfixturevalue(plans_name))
        checked = {"cpu": 0, "io": 0}
        for (family, resource), model_set in trained_estimator.model_sets.items():
            if family not in matrices:
                continue
            matrix = matrices[family]
            served = trained_estimator.estimate_family_matrix(family, matrix, resource)
            assert np.array_equal(served, model_set_predict_batch(model_set, matrix))
            checked[resource] += len(matrix)
        assert min(checked.values()) > 100

    # The estimator evaluates its models through ForestBank.predict, so the
    # walked side replaces that call with the node-walking reference.

    @pytest.mark.parametrize("resource", ["cpu", "io"])
    def test_full_stack_parity_tpch(
        self, trained_estimator, tpch_test_plans, resource, monkeypatch
    ):
        flat = trained_estimator.estimate_workload(tpch_test_plans, (resource,))
        walks = _patch_walked_bank(monkeypatch)
        walked = trained_estimator.estimate_workload(tpch_test_plans, (resource,))
        assert walks
        assert np.array_equal(flat.query_totals(resource), walked.query_totals(resource))
        assert flat.operator_estimates[resource] == walked.operator_estimates[resource]

    @pytest.mark.parametrize("resource", ["cpu", "io"])
    def test_full_stack_parity_tpcds(
        self, trained_estimator, tpcds_plans, resource, monkeypatch
    ):
        """Cross-schema: the TPC-H-trained models serve TPC-DS plans."""
        flat = trained_estimator.estimate_workload(tpcds_plans, (resource,))
        walks = _patch_walked_bank(monkeypatch)
        walked = trained_estimator.estimate_workload(tpcds_plans, (resource,))
        assert walks
        assert np.array_equal(flat.query_totals(resource), walked.query_totals(resource))
        assert flat.operator_estimates[resource] == walked.operator_estimates[resource]

    def test_unguarded_non_finite_rows_parity(
        self, trained_estimator, tpch_test_plans, monkeypatch
    ):
        """NaN/inf features reach the kernel on the unguarded path."""
        extracted = [trained_estimator.extract_plan_features(p) for p in tpch_test_plans]
        corrupted = FaultInjector(seed=2).corrupt_features(extracted, rate=0.3, kind="nan")
        corrupted = FaultInjector(seed=3).corrupt_features(corrupted, rate=0.2, kind="inf")
        with np.errstate(all="ignore"):
            flat = trained_estimator.estimate_extracted_workload(
                tpch_test_plans, corrupted, guardrails=False
            )
            walks = _patch_walked_bank(monkeypatch)
            walked = trained_estimator.estimate_extracted_workload(
                tpch_test_plans, corrupted, guardrails=False
            )
        assert walks
        for resource in trained_estimator.resources:
            for got, want in zip(
                flat.operator_estimates[resource], walked.operator_estimates[resource]
            ):
                assert list(got) == list(want)
                assert np.array_equal(
                    np.array(list(got.values())), np.array(list(want.values())), equal_nan=True
                )


def _patch_walked_bank(monkeypatch):
    """Route ForestBank.predict through the node walk; returns the call log."""
    calls = []

    def walked(bank, blocks):
        calls.append(len(blocks))
        return walked_bank_predict(bank, blocks)

    monkeypatch.setattr(ForestBank, "predict", walked)
    return calls


# -- the forest bank ---------------------------------------------------------------------


def _scaled_rows(matrix: np.ndarray, seed: int) -> np.ndarray:
    """The rows, plus seeded copies with cells scaled far in and out of range."""
    rng = np.random.default_rng(seed)
    factors = rng.choice([1e-3, 0.1, 1.0, 10.0, 1e3, 1e6], size=matrix.shape)
    return np.vstack([matrix, matrix * factors])


def _non_finite_rows(matrix: np.ndarray, seed: int) -> np.ndarray:
    """Copies of the rows with NaN, +inf and -inf planted in seeded cells."""
    rng = np.random.default_rng(seed)
    planted = np.tile(matrix[: max(1, min(len(matrix), 16))], (3, 1))
    for value, share in ((np.nan, 0.2), (np.inf, 0.1), (-np.inf, 0.1)):
        planted[rng.random(planted.shape) < share] = value
    planted[0, :] = np.nan
    return planted


def _candidates(estimator):
    """Every (model set key, candidate) of an estimator, in a fixed order."""
    return [
        (key, candidate)
        for key, model_set in sorted(
            estimator.model_sets.items(), key=lambda item: (item[0][0].value, item[0][1])
        )
        for candidate in model_set.selection_tables().candidates
    ]


def _bank_input(candidate: CombinedModel, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(raw-order rows the bank reads, transformed rows the MART model reads).

    Columns the candidate does not read are NaN, so reading one would show.
    """
    transformed = candidate.transform_matrix(matrix)
    rows = np.full(matrix.shape, np.nan, dtype=np.float64)
    rows[:, candidate.input_columns] = transformed
    return rows, transformed


def _bank_of(candidates) -> ForestBank:
    return ForestBank([(candidate.model_, candidate.input_columns) for _, candidate in candidates])


class TestForestBankParity:
    """Every candidate through the bank == its per-tree node walk, bit for bit."""

    @pytest.mark.parametrize(
        "estimator_name,plans_name",
        [
            ("trained_estimator", "tpch_test_plans"),
            ("trained_estimator", "tpcds_plans"),
            ("tpcds_estimator", "tpcds_plans"),
        ],
    )
    def test_every_candidate_matches_node_walk(self, request, estimator_name, plans_name):
        estimator = request.getfixturevalue(estimator_name)
        plans = request.getfixturevalue(plans_name)
        family_rows = rows_by_family(estimator, plans)
        candidates = _candidates(estimator)
        bank = _bank_of(candidates)
        blocks, expected = [], []
        zero_tree = 0
        for model_id, ((family, _), candidate) in enumerate(candidates):
            if family not in family_rows:
                continue
            matrix = family_rows[family].matrix
            with np.errstate(all="ignore"):
                matrix = np.vstack(
                    [_scaled_rows(matrix, model_id), _non_finite_rows(matrix, model_id)]
                )
                rows, transformed = _bank_input(candidate, matrix)
                expected.append(candidate.model_.predict_per_tree(transformed))
            blocks.append((rows, np.full(len(rows), model_id, dtype=np.int64)))
            zero_tree += candidate.model_.n_trees == 0
        with np.errstate(all="ignore"):
            outputs = bank.predict(blocks)
        assert len(outputs) == len(blocks) > 10
        for got, want in zip(outputs, expected):
            assert got.tobytes() == want.tobytes()
        if estimator_name == "trained_estimator":
            assert zero_tree > 0  # io models of constant-target families have no trees

    def test_mixed_models_in_one_call_match_one_model_at_a_time(
        self, trained_estimator, tpch_test_plans
    ):
        family_rows = rows_by_family(trained_estimator, tpch_test_plans)
        candidates = _candidates(trained_estimator)
        bank = _bank_of(candidates)
        rng = np.random.default_rng(23)
        blocks, singles = [], []
        for family, rows in family_rows.items():
            ids = [i for i, ((fam, _), _) in enumerate(candidates) if fam == family]
            if not ids:
                continue
            matrix = _scaled_rows(rows.matrix, len(blocks))
            chosen = rng.choice(ids, size=len(matrix))
            block = np.full(matrix.shape, np.nan, dtype=np.float64)
            for model_id in ids:
                mask = chosen == model_id
                block[mask] = _bank_input(candidates[model_id][1], matrix[mask])[0]
                singles.append((mask, len(blocks), model_id))
            blocks.append((block, chosen))
        together = bank.predict(blocks)
        assert len(together) > 2
        for mask, block_index, model_id in singles:
            rows, _ = blocks[block_index]
            alone = bank.predict([(rows[mask], np.full(int(mask.sum()), model_id))])[0]
            assert together[block_index][mask].tobytes() == alone.tobytes()
        for got, want in zip(together, walked_bank_predict(bank, blocks)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [1, 100, 5000])
    def test_tiny_cell_budget_changes_no_bit(
        self, trained_estimator, tpcds_plans, monkeypatch, budget
    ):
        family_rows = rows_by_family(trained_estimator, tpcds_plans)
        candidates = _candidates(trained_estimator)
        bank = _bank_of(candidates)
        blocks = []
        for model_id, ((family, _), candidate) in enumerate(candidates):
            if family in family_rows:
                rows, _ = _bank_input(candidate, family_rows[family].matrix)
                blocks.append((rows, np.full(len(rows), model_id)))
        whole = bank.predict(blocks)
        monkeypatch.setattr(flat_ensemble, "_CELL_BUDGET", budget)
        blocked = bank.predict(blocks)
        for got, want in zip(blocked, whole):
            assert got.tobytes() == want.tobytes()

    def test_zero_tree_model(self):
        model = MARTRegressor(MARTConfig(n_iterations=5)).fit(
            np.arange(20, dtype=np.float64).reshape(10, 2), np.full(10, 3.25)
        )
        assert model.n_trees == 0
        rows = np.array([[1.0, 2.0, np.nan], [np.inf, 0.0, 5.0]], dtype=np.float64)
        bank = ForestBank([(model, [2, 0])])
        out = bank.predict([(rows, np.zeros(2, dtype=np.int64))])[0]
        assert out.tobytes() == model.predict_per_tree(rows[:, [2, 0]]).tobytes()

    def test_deep_chain_tree_next_to_a_shallow_model(self, fitted_mart, rng_matrix):
        # 15 internal levels: every cell of the call descends that deep, and
        # cells of the shallow model sit on their leaves meanwhile.
        node = TreeNode(value=100.0)
        for level in reversed(range(15)):
            node = TreeNode(
                value=0.0,
                feature=0,
                threshold=float(level),
                left=TreeNode(value=float(level)),
                right=node,
            )
        chain = RegressionTree()
        chain.root = node
        chain.n_features_ = 1
        deep = MARTRegressor(MARTConfig(learning_rate=0.5))
        deep.trees_ = [chain, chain]
        deep.n_features_ = 1
        deep.initial_prediction_ = 0.25
        features, _ = rng_matrix
        shallow_rows = features[:40]
        x = np.array([[14.0], [3.0], [1e9], [np.nan], [-np.inf], [7.5]], dtype=np.float64)
        deep_rows = np.full((len(x), 6), np.nan, dtype=np.float64)
        deep_rows[:, 4] = x[:, 0]
        bank = ForestBank([(fitted_mart, range(6)), (deep, [4])])
        mixed = np.vstack([deep_rows, shallow_rows])
        ids = np.array([1] * len(x) + [0] * len(shallow_rows))
        out = bank.predict([(mixed, ids)])[0]
        assert out[: len(x)].tobytes() == deep.predict_per_tree(x).tobytes()
        assert out[len(x):].tobytes() == fitted_mart.predict_per_tree(shallow_rows).tobytes()

    def test_reads_each_models_current_parameters(self, fitted_mart, rng_matrix):
        features, _ = rng_matrix
        model = copy.deepcopy(fitted_mart)
        bank = ForestBank([(model, range(6))])
        model.initial_prediction_ = -7.5
        out = bank.predict([(features[:8], np.zeros(8, dtype=np.int64))])[0]
        assert out.tobytes() == model.predict_per_tree(features[:8]).tobytes()

    def test_refuses_leaf_model_forests(self, rng_matrix):
        features, targets = rng_matrix
        model = TransformRegressor(n_iterations=3, max_leaves=4).fit(features, targets)

        class _Wrapped:
            def flat_forest(self):
                return compile_transform(model)

        with pytest.raises(ValueError, match="leaf models"):
            ForestBank([(_Wrapped(), range(6))])

    def test_empty_call(self, fitted_mart):
        bank = ForestBank([(fitted_mart, range(6))])
        assert bank.predict([]) == []
        (out,) = bank.predict([(np.zeros((0, 6)), np.zeros(0, dtype=np.int64))])
        assert out.shape == (0,)


class TestOneKernelCall:
    def test_one_bank_call_and_no_per_model_path(
        self, trained_estimator, tpch_test_plans, monkeypatch
    ):
        extracted = [trained_estimator.extract_plan_features(p) for p in tpch_test_plans]
        families = {of.family for plan in extracted for of in plan.values()}
        modelled = {f for f, _ in trained_estimator.model_sets if f in families}
        assert len(modelled) > 2
        calls = []
        bank_predict = ForestBank.predict

        def counted(bank, blocks):
            calls.append(len(blocks))
            return bank_predict(bank, blocks)

        def forbidden(*args, **kwargs):
            raise AssertionError("the serving path called a per-model evaluation")

        monkeypatch.setattr(ForestBank, "predict", counted)
        monkeypatch.setattr(MARTRegressor, "predict", forbidden)
        monkeypatch.setattr(CombinedModel, "transform_matrix", forbidden)
        estimate = trained_estimator.estimate_extracted_workload(
            tpch_test_plans, extracted, ("cpu", "io")
        )
        served = sum(
            (family, resource) in trained_estimator.model_sets
            for family in families
            for resource in ("cpu", "io")
        )
        assert calls == [served]
        assert estimate.resources == ("cpu", "io")


# -- the estimator's bank under threads --------------------------------------------------


def _same(got, want) -> None:
    for resource in want.resources:
        assert got.operator_estimates[resource] == want.operator_estimates[resource]
    assert got.degradation.entries == want.degradation.entries


class TestBankConcurrency:
    @pytest.fixture(scope="class")
    def artifact(self, trained_estimator, tmp_path_factory):
        path = tmp_path_factory.mktemp("bank") / "model.bin"
        save_estimator(trained_estimator, path)
        return path

    def _run(self, n_threads, call, timeout_s=60.0):
        """``call(slot)`` on ``n_threads`` threads released together.

        A call that raises leaves its thread's result unset, which the
        caller's checks then catch.
        """
        barrier = threading.Barrier(n_threads)

        def run(slot: int) -> None:
            barrier.wait(timeout=timeout_s)
            call(slot)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout_s)
        assert not any(thread.is_alive() for thread in threads)

    def test_concurrent_first_calls(self, artifact, tpch_test_plans):
        reference_estimator = load_estimator(artifact)
        extracted = [reference_estimator.extract_plan_features(p) for p in tpch_test_plans]
        reference = reference_estimator.estimate_extracted_workload(tpch_test_plans, extracted)
        previous = sys.getswitchinterval()
        deadline = time.monotonic() + 2.0
        rounds = 0
        try:
            sys.setswitchinterval(1e-6)
            while rounds < 3 or (rounds < 20 and time.monotonic() < deadline):
                estimator = load_estimator(artifact)
                assert estimator._bank is None
                results: list = [None] * 8

                def call(slot: int, estimator=estimator, results=results) -> None:
                    results[slot] = [
                        estimator.estimate_extracted_workload(tpch_test_plans, extracted)
                        for _ in range(2)
                    ]

                self._run(8, call)
                for calls in results:
                    assert calls is not None
                    for estimate in calls:
                        _same(estimate, reference)
                assert estimator._bank.holds(
                    [s.selection_tables() for s in estimator.model_sets.values()]
                )
                rounds += 1
        finally:
            sys.setswitchinterval(previous)

    def test_model_set_swap_mid_stream(self, artifact, tpch_test_plans):
        before = load_estimator(artifact)
        extracted = [before.extract_plan_features(p) for p in tpch_test_plans]
        families = {of.family for plan in extracted for of in plan.values()}
        key = next(
            key
            for key, model_set in sorted(
                before.model_sets.items(), key=lambda item: (item[0][0].value, item[0][1])
            )
            if key[0] in families and len(model_set.models) > 1
        )

        def swapped_set(estimator):
            """New model objects in a new order: a stale bank would serve
            the old objects at the new candidate indices."""
            model_set = copy.deepcopy(estimator.model_sets[key])
            model_set.models = model_set.models[::-1]
            for model in model_set.models:
                model.model_.initial_prediction_ += 1.0
            return model_set

        after = load_estimator(artifact)
        after.model_sets[key] = swapped_set(after)
        old_reference = before.estimate_extracted_workload(tpch_test_plans, extracted)
        new_reference = after.estimate_extracted_workload(tpch_test_plans, extracted)
        assert old_reference.operator_estimates != new_reference.operator_estimates

        previous = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            estimator = load_estimator(artifact)
            replacement = swapped_set(estimator)
            swapped = threading.Event()
            results: list[list] = [[] for _ in range(8)]

            def call(slot: int) -> None:
                if slot == 0:
                    for _ in range(3):
                        estimator.estimate_extracted_workload(tpch_test_plans, extracted)
                    estimator.model_sets[key] = replacement
                    swapped.set()
                    results[0] = None
                    return
                for _ in range(8):
                    started_after = swapped.is_set()
                    results[slot].append(
                        (
                            started_after,
                            estimator.estimate_extracted_workload(tpch_test_plans, extracted),
                        )
                    )

            self._run(8, call)
        finally:
            sys.setswitchinterval(previous)
        assert swapped.is_set() and results[0] is None
        for calls in results[1:]:
            assert len(calls) == 8
            for started_after, estimate in calls:
                # A call that started before the swap may select with either set.
                if started_after or estimate.operator_estimates != old_reference.operator_estimates:
                    _same(estimate, new_reference)
                else:
                    _same(estimate, old_reference)
        final = estimator.estimate_extracted_workload(tpch_test_plans, extracted)
        _same(final, new_reference)
        assert estimator._bank.holds([replacement.selection_tables()])


class TestEdgeCaseParity:
    def test_single_leaf_tree(self):
        forest = FlatForest.from_trees(
            [TreeNode(value=2.5)], learning_rate=0.1, init_=1.0, n_features=3
        )
        out = forest.predict(np.zeros((5, 3)))
        assert np.array_equal(out, np.full(5, 1.0 + 0.1 * 2.5))

    def test_all_rows_one_leaf(self):
        root = TreeNode(
            value=0.0,
            feature=0,
            threshold=10.0,
            left=TreeNode(value=-4.0),
            right=TreeNode(value=7.0),
        )
        forest = FlatForest.from_trees(
            [root], learning_rate=1.0, init_=0.0, n_features=2
        )
        left_only = np.full((64, 2), 3.0)
        right_only = np.full((64, 2), 100.0)
        assert np.array_equal(forest.predict(left_only), np.full(64, -4.0))
        assert np.array_equal(forest.predict(right_only), np.full(64, 7.0))

    def test_nan_and_inf_features_match_node_walk(self, fitted_mart, rng_matrix):
        features, _ = rng_matrix
        corrupted = features[:48].copy()
        corrupted[0, 0] = np.nan
        corrupted[1, :] = np.nan
        corrupted[2, 1] = np.inf
        corrupted[3, 2] = -np.inf
        assert np.array_equal(
            fitted_mart.predict(corrupted), fitted_mart.predict_per_tree(corrupted)
        )

    def test_deep_chain_tree_uses_fallback_router(self):
        # 15 internal levels exceeds the perfect-heap depth cap, exercising
        # the generic descent path.
        leaf_value = 100.0
        node = TreeNode(value=leaf_value)
        # Root tests threshold 0; rows descend right until x <= level.
        for level in reversed(range(15)):
            node = TreeNode(
                value=0.0,
                feature=0,
                threshold=float(level),
                left=TreeNode(value=float(level)),
                right=node,
            )
        forest = FlatForest.from_trees(
            [node], learning_rate=1.0, init_=0.0, n_features=1
        )
        assert forest._tree_depths().max() > 12
        x = np.array([[14.0], [3.0], [1e9], [np.nan]], dtype=np.float64)
        expected = np.array([14.0, 3.0, leaf_value, leaf_value])
        assert np.array_equal(forest.predict(x), expected)

    def test_transform_regressor_parity(self, rng_matrix):
        features, targets = rng_matrix
        model = TransformRegressor(n_iterations=20, max_leaves=5).fit(
            features, targets
        )
        assert np.array_equal(
            model.predict(features), model.predict_per_stage(features)
        )

    def test_transform_regressor_nan_parity(self, rng_matrix):
        features, targets = rng_matrix
        model = TransformRegressor(n_iterations=12, max_leaves=5).fit(
            features, targets
        )
        corrupted = features[:32].copy()
        corrupted[0, 0] = np.nan
        corrupted[5, :] = np.inf
        with np.errstate(invalid="ignore"):
            flat = model.predict(corrupted)
            staged = model.predict_per_stage(corrupted)
        assert np.array_equal(flat, staged, equal_nan=True)


class TestCompileRoundTrips:
    def test_decompile_recompile_identical(self, fitted_mart):
        forest = compile_mart(fitted_mart)
        rebuilt = FlatForest.from_trees(
            forest.tree_root_nodes(),
            learning_rate=forest.learning_rate,
            init_=forest.init_,
            n_features=forest.n_features,
        )
        assert np.array_equal(forest.feature_id, rebuilt.feature_id)
        assert np.array_equal(forest.threshold, rebuilt.threshold)
        assert np.array_equal(forest.left, rebuilt.left)
        assert np.array_equal(forest.right, rebuilt.right)
        assert np.array_equal(forest.leaf_value, rebuilt.leaf_value)
        assert np.array_equal(forest.tree_roots, rebuilt.tree_roots)

    def test_stats_sanity(self, fitted_mart):
        stats = compile_mart(fitted_mart).stats()
        assert stats.n_trees == fitted_mart.n_trees
        assert stats.n_leaves <= stats.n_trees * fitted_mart.config.max_leaves
        assert stats.n_nodes == 2 * stats.n_leaves - stats.n_trees
        assert stats.max_depth >= 1
        assert stats.array_bytes > 0
        assert "int32" in stats.dtype_summary

    def test_transform_leaf_models_survive_decompile(self, rng_matrix):
        features, targets = rng_matrix
        model = TransformRegressor(n_iterations=8, max_leaves=5).fit(features, targets)
        forest = compile_transform(model)
        rebuilt = FlatForest.from_trees(
            forest.tree_root_nodes(),
            learning_rate=forest.learning_rate,
            init_=forest.init_,
            n_features=forest.n_features,
            clip_negative=forest.clip_negative,
            leaf_models=forest.leaf_models_by_rank(),
        )
        assert np.array_equal(
            forest.predict(features, init=forest.init_, rate=forest.learning_rate),
            rebuilt.predict(features, init=forest.init_, rate=forest.learning_rate),
        )


class TestArtifactRoundTrips:
    def test_v3_mmap_load_identical(self, trained_estimator, tpch_test_plans, tmp_path):
        path = tmp_path / "model_v3.bin"
        save_estimator(trained_estimator, path)
        mapped = load_estimator(path, mmap=True)
        plain = load_estimator(path)
        for resource in ("cpu", "io"):
            expected = trained_estimator.estimate_workload(
                tpch_test_plans, (resource,)
            ).query_totals(resource)
            assert np.array_equal(
                mapped.estimate_workload(tpch_test_plans, (resource,)).query_totals(
                    resource
                ),
                expected,
            )
            assert np.array_equal(
                plain.estimate_workload(tpch_test_plans, (resource,)).query_totals(
                    resource
                ),
                expected,
            )

    def test_service_from_artifact_mmap(self, trained_estimator, tpch_test_plans, tmp_path):
        path = tmp_path / "model_v3.bin"
        save_estimator(trained_estimator, path)
        service = EstimationService.from_artifact(path, mmap=True)
        direct = EstimationService.from_artifact(path)
        mapped_estimate = service.estimate_workload(tpch_test_plans)
        direct_estimate = direct.estimate_workload(tpch_test_plans)
        for resource in service.resources:
            assert np.array_equal(
                mapped_estimate.query_totals(resource),
                direct_estimate.query_totals(resource),
            )


class TestCacheInvalidation:
    def test_root_reassignment_invalidates_flat_cache(self, rng_matrix):
        features, targets = rng_matrix
        tree = RegressionTree(max_leaves=6).fit(features, targets)
        tree.predict(features)
        assert tree._flat_cache is not None
        tree.root = TreeNode(value=42.0)
        assert tree._flat_cache is None
        assert np.array_equal(tree.predict(features), np.full(features.shape[0], 42.0))

    def test_mart_trees_setter_invalidates_compiled(self, rng_matrix):
        features, targets = rng_matrix
        model = MARTRegressor(MARTConfig(n_iterations=5, max_leaves=4)).fit(
            features, targets
        )
        baseline = model.predict(features)
        single = RegressionTree(max_leaves=2)
        single.root = TreeNode(value=1.0)
        single.n_features_ = features.shape[1]
        trees = model.trees_
        model.trees_ = [single]
        changed = model.predict(features)
        expected = model.initial_prediction_ + model.config.learning_rate
        assert np.array_equal(changed, np.full(features.shape[0], expected))
        model.trees_ = trees
        assert np.array_equal(model.predict(features), baseline)
