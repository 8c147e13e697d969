"""Selection parity: the fused selector against a per-candidate reference loop.

The reference below is the paper's Section 6.3 rule written the slow, obvious
way.  For every row and every candidate it takes the key (max out_ratio,
#scaling features, out_ratio tail padded with -1.0) from
``out_ratio_profiles`` in ``tests/reference.py``, the per-model definition;
it picks the first candidate with the smallest key, ranking NaN entries
after every number, then applies rule 1.  The production selector must choose the same index,
return bit-equal max out_ratios and the same ``used_default`` flags: on
trained TPC-H and TPC-DS model sets over real plan rows and seeded
out-of-range scalings, on hand-built edge-case sets, on exact ties, in row
blocks, on NaN rows, and under concurrent first calls.
"""

from __future__ import annotations

import copy
import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import ResourceEstimator
from repro.core import model_selection
from repro.core.combined_model import CombinedModel
from repro.core.model_selection import SelectionTables
from repro.core.scaled_model import ScalingStep
from repro.core.scaling import SCALING_FUNCTIONS
from repro.core.trainer import OperatorModelSet
from repro.features.definitions import FeatureMode, OperatorFamily
from repro.features.extractor import group_by_family
from repro.ml.mart import MARTConfig
from repro.workloads.datasets import build_training_data, split_workload
from repro.workloads.tpcds import build_tpcds_workload

from reference import combined_predict_batch, model_set_predict_batch, out_ratio_profiles

#: Filter-like feature order of the hand-built sets.  CPREDICATES and
#: OUTPUTUSAGE have no dependents, so scaling by them leaves every other
#: feature untouched.
NAMES = ("COUT", "SOUTAVG", "SOUTTOT", "CIN1", "SINAVG1", "SINTOT1",
         "CPREDICATES", "OUTPUTUSAGE")


# -- the reference ---------------------------------------------------------------------


def _rank(key: tuple[float, ...]) -> tuple[tuple[bool, float], ...]:
    """Sort key ranking NaN after every number (as ``np.lexsort`` does)."""
    return tuple((math.isnan(v), 0.0 if math.isnan(v) else v) for v in key)


def reference_select(default_model, models, matrix):
    """(candidates, indices, max_out_ratios, used_default) by the loop rule."""
    candidates = list(models)
    if not any(model is default_model for model in candidates):
        candidates.append(default_model)
    default_index = next(i for i, m in enumerate(candidates) if m is default_model)
    profiles = [out_ratio_profiles(model, matrix).tolist() for model in candidates]
    indices, max_ratios = [], []
    for row in range(matrix.shape[0]):
        keys = []
        for model, model_profiles in zip(candidates, profiles):
            profile = model_profiles[row]
            tail = profile[1:8]
            keys.append(
                (
                    profile[0] if profile else 0.0,
                    float(model.n_scaling_features),
                    *tail,
                    *[-1.0] * (7 - len(tail)),
                )
            )
        best = min(range(len(candidates)), key=lambda i: _rank(keys[i]))
        if keys[default_index][0] <= 0.0:  # rule 1
            best = default_index
            best_max = 0.0
        else:
            best_max = keys[best][0]
        indices.append(best)
        max_ratios.append(best_max)
    indices_array = np.array(indices, dtype=np.int64)
    return (
        candidates,
        indices_array,
        np.array(max_ratios, dtype=np.float64),
        indices_array == default_index,
    )


def assert_matches_reference(selection, default_model, models, matrix):
    candidates, indices, max_ratios, used_default = reference_select(
        default_model, models, matrix
    )
    assert len(selection.candidates) == len(candidates)
    assert all(a is b for a, b in zip(selection.candidates, candidates))
    np.testing.assert_array_equal(selection.indices, indices)
    assert selection.max_out_ratios.dtype == np.float64
    assert selection.max_out_ratios.tobytes() == max_ratios.tobytes()
    np.testing.assert_array_equal(selection.used_default, used_default)


def _out_of_range(matrix: np.ndarray, seed: int) -> np.ndarray:
    """The rows, plus seeded copies with cells scaled far in and out of range."""
    rng = np.random.default_rng(seed)
    factors = rng.choice([1e-3, 0.1, 1.0, 1.0, 10.0, 1e3, 1e6], size=matrix.shape)
    widened = np.abs(matrix) * rng.uniform(0.0, 50.0, size=matrix.shape)
    return np.vstack([matrix, matrix * factors, widened])


# -- trained model sets over real plans ------------------------------------------------


@pytest.fixture(scope="module")
def tpcds_workload():
    return build_tpcds_workload(scale_factor=0.05, skew_z=0.8, n_queries=24, seed=5)


@pytest.fixture(scope="module")
def tpcds_estimator(tpcds_workload, tiny_trainer_config):
    train, _ = split_workload(tpcds_workload, train_fraction=0.75, seed=3)
    return ResourceEstimator.train(
        build_training_data(train, FeatureMode.EXACT),
        FeatureMode.EXACT,
        resources=("cpu", "io"),
        config=tiny_trainer_config,
    )


@pytest.fixture(scope="module")
def served_plans(workload_split, tpcds_workload):
    _, test = workload_split
    return [query.plan for query in test] + [query.plan for query in tpcds_workload.queries]


class TestTrainedSets:
    @pytest.mark.parametrize("estimator_name", ["trained_estimator", "tpcds_estimator"])
    def test_matches_reference_on_plan_rows(self, request, estimator_name, served_plans):
        estimator = request.getfixturevalue(estimator_name)
        family_rows = group_by_family([estimator.extract_plan_features(p) for p in served_plans])
        checked = 0
        for seed, ((family, resource), model_set) in enumerate(
            sorted(estimator.model_sets.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
        ):
            if family not in family_rows:
                continue
            matrix = _out_of_range(family_rows[family].matrix, seed)
            selection = model_set.select_batch(matrix)
            assert_matches_reference(
                selection, model_set.default_model, model_set.models, matrix
            )
            fresh = SelectionTables(model_set.default_model, model_set.models).select(matrix)
            np.testing.assert_array_equal(fresh.indices, selection.indices)
            checked += matrix.shape[0]
        assert checked > 500


# -- hand-built sets -------------------------------------------------------------------


def _training_matrix(n: int = 200, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cin = rng.uniform(100.0, 10_000.0, n)
    width = rng.uniform(10.0, 200.0, n)
    cout = cin * rng.uniform(0.1, 0.9, n)
    predicates = rng.integers(1, 4, n).astype(np.float64)
    usage = rng.uniform(1.0, 5.0, n)
    return np.column_stack([cout, width, cout * width, cin, width, cin * width,
                            predicates, usage])


def _ranged(*features: str, train: np.ndarray | None = None) -> CombinedModel:
    """A model scaled by ``features`` whose ranges come from ``train`` (unfitted)."""
    steps = tuple(ScalingStep(f, SCALING_FUNCTIONS["linear"]) for f in features)
    model = CombinedModel(OperatorFamily.FILTER, "cpu", NAMES, steps)
    transformed = model.transform_matrix(_training_matrix() if train is None else train)
    model.training_low_ = dict(zip(model.input_features_, transformed.min(axis=0).tolist()))
    model.training_high_ = dict(zip(model.input_features_, transformed.max(axis=0).tolist()))
    return model


def _probe(n: int = 240, seed: int = 1) -> np.ndarray:
    """Training-like rows; about two thirds have cells pushed out of range."""
    rng = np.random.default_rng(seed)
    matrix = _training_matrix(n, seed)
    factors = rng.choice([1.0, 1.0, 1.0, 1e-2, 20.0, 1e4], size=matrix.shape)
    factors[: n // 3] = 1.0
    return matrix * factors


def _unknown_input() -> CombinedModel:
    model = _ranged("CIN1")
    del model.training_low_["SOUTAVG"]
    return model


HAND_BUILT = {
    "default-outside-models": lambda: ([_ranged("CIN1"), _ranged("CIN1", "SINAVG1")],
                                       _ranged()),
    "no-input-features": lambda: ([_ranged(), _ranged(*NAMES)], None),
    "dependent-pair": lambda: ([_ranged(), _ranged("CIN1"), _ranged("CIN1", "COUT")], None),
    "missing-step-feature": lambda: ([_ranged(), _ranged("TSIZE"), _ranged("TSIZE", "CIN1")],
                                     None),
    "repeated-step-feature": lambda: ([_ranged(), _ranged("CIN1", "CIN1"),
                                       _ranged("CIN1", "SINAVG1", "CIN1")], None),
    "unknown-input-range": lambda: ([_ranged(), _unknown_input()], None),
    "scaled-default": lambda: ([_ranged(), _ranged("COUT"), _ranged("SOUTTOT", "COUT")],
                               1),
}


def _hand_built(name: str) -> tuple[CombinedModel, list[CombinedModel]]:
    models, default = HAND_BUILT[name]()
    if default is None:
        default = models[0]
    elif isinstance(default, int):
        default = models[default]
    return default, models


class TestHandBuiltSets:
    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_matches_reference(self, name):
        default, models = _hand_built(name)
        matrix = _probe()
        selection = SelectionTables(default, models).select(matrix)
        assert_matches_reference(selection, default, models, matrix)
        # Both rules fire on the probe: in-range rows keep the default and
        # some out-of-range row moves off it.
        assert selection.used_default.any()
        assert not selection.used_default.all()

    def test_default_outside_models_is_appended(self):
        default, models = _hand_built("default-outside-models")
        selection = SelectionTables(default, models).select(_probe())
        assert selection.candidates[-1] is default
        assert len(selection.candidates) == len(models) + 1

    def test_candidate_without_inputs_has_zero_max(self):
        default, models = _hand_built("no-input-features")
        selection = SelectionTables(default, models).select(_probe())
        moved = ~selection.used_default
        assert (selection.indices[moved] == 1).all()
        assert (selection.max_out_ratios[moved] == 0.0).all()


class TestTies:
    def test_exact_key_ties_keep_the_earliest_candidate(self):
        first, second = _ranged("CIN1"), _ranged("CIN1")
        models = [_ranged(), first, second]
        matrix = _probe()
        selection = SelectionTables(models[0], models).select(matrix)
        assert_matches_reference(selection, models[0], models, matrix)
        assert (selection.indices == 1).any()
        assert not (selection.indices == 2).any()

    def test_max_ties_break_on_scaling_count_then_tail(self):
        plain = _ranged()
        by_predicates = _ranged("CPREDICATES")
        by_usage = _ranged("OUTPUTUSAGE")
        pair = _ranged("CPREDICATES", "OUTPUTUSAGE")
        row = _training_matrix(1, seed=3)
        row[0, NAMES.index("CIN1")] *= 1e4  # the same max out_ratio for every model
        row[0, NAMES.index("OUTPUTUSAGE")] = 6.0  # a smaller second one
        models = [pair, by_predicates, by_usage, plain]
        selection = SelectionTables(plain, models).select(row)
        assert_matches_reference(selection, plain, models, row)
        assert selection.indices[0] == 3  # plain: fewest scaling features
        # Without plain, the pair loses on #scaling features and, of the
        # single-step models, the one that drops OUTPUTUSAGE has the smaller
        # second-largest out_ratio.
        models = [pair, by_predicates, by_usage]
        selection = SelectionTables(by_predicates, models).select(row)
        assert_matches_reference(selection, by_predicates, models, row)
        assert selection.indices[0] == 2
        row[0, NAMES.index("OUTPUTUSAGE")] = 3.0  # back in range: an exact tie
        selection = SelectionTables(by_predicates, models).select(row)
        assert_matches_reference(selection, by_predicates, models, row)
        assert selection.indices[0] == 1


class TestRowBlocks:
    @pytest.mark.parametrize("budget", [1, 100, 1000])
    def test_tiny_cell_budget_matches_one_block(self, monkeypatch, budget):
        default, models = _hand_built("dependent-pair")
        matrix = _probe(n=97)
        whole = SelectionTables(default, models).select(matrix)
        monkeypatch.setattr(model_selection, "_CELL_BUDGET", budget)
        blocked = SelectionTables(default, models).select(matrix)
        np.testing.assert_array_equal(blocked.indices, whole.indices)
        assert blocked.max_out_ratios.tobytes() == whole.max_out_ratios.tobytes()
        np.testing.assert_array_equal(blocked.used_default, whole.used_default)
        assert_matches_reference(blocked, default, models, matrix)

    def test_empty_matrix(self):
        default, models = _hand_built("dependent-pair")
        selection = SelectionTables(default, models).select(np.zeros((0, len(NAMES))))
        assert selection.indices.shape == (0,)
        assert selection.max_out_ratios.shape == (0,)
        assert selection.used_default.shape == (0,)

    def test_wrong_width_is_rejected(self):
        default, models = _hand_built("dependent-pair")
        with pytest.raises(ValueError, match="feature matrix"):
            SelectionTables(default, models).select(np.zeros((2, len(NAMES) + 1)))


class TestNaNRanksLast:
    @pytest.mark.parametrize("name", ["dependent-pair", "repeated-step-feature",
                                      "missing-step-feature"])
    def test_nan_rows_match_rank_last_reference(self, name):
        default, models = _hand_built(name)
        rng = np.random.default_rng(11)
        matrix = _probe(n=120, seed=4)
        matrix[rng.random(matrix.shape) < 0.08] = np.nan
        matrix[rng.random(matrix.shape) < 0.02] = np.inf
        matrix[:3] = _training_matrix(3, seed=9) * 1e300  # overflow to inf/NaN
        with np.errstate(all="ignore"):
            selection = SelectionTables(default, models).select(matrix)
            assert_matches_reference(selection, default, models, matrix)

    def test_nan_max_loses_to_a_number(self):
        """A NaN max out_ratio ranks after a number, whatever follows it."""
        plain = _ranged()
        by_predicates = _ranged("CPREDICATES")
        row = _training_matrix(1, seed=5)
        row[0, NAMES.index("CPREDICATES")] = np.nan
        selection = SelectionTables(plain, [plain, by_predicates]).select(row)
        # plain's key is (nan, 0, ...); the CPREDICATES model does not read
        # the NaN column and covers the rest: (0.0, 1, ...).
        assert selection.indices[0] == 1
        assert selection.max_out_ratios[0] == 0.0
        assert not selection.used_default[0]


# -- each row's transformed input ------------------------------------------------------


def assert_inputs_match(selection, matrix):
    """Each row's input columns equal its chosen candidate's transform_matrix row."""
    assert selection.inputs.shape == matrix.shape
    assert selection.inputs.dtype == np.float64
    for index in np.unique(selection.indices):
        rows = selection.indices == index
        candidate = selection.candidates[index]
        expected = candidate.transform_matrix(matrix[rows])
        assert selection.inputs[rows][:, candidate.input_columns].tobytes() == expected.tobytes()


class TestTransformedInputs:
    @pytest.mark.parametrize("estimator_name", ["trained_estimator", "tpcds_estimator"])
    def test_trained_sets_on_plan_rows(self, request, estimator_name, served_plans):
        estimator = request.getfixturevalue(estimator_name)
        family_rows = group_by_family([estimator.extract_plan_features(p) for p in served_plans])
        chosen = 0
        for seed, ((family, _), model_set) in enumerate(
            sorted(estimator.model_sets.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
        ):
            if family not in family_rows:
                continue
            matrix = _out_of_range(family_rows[family].matrix, seed)
            selection = model_set.select_batch(matrix)
            assert_inputs_match(selection, matrix)
            chosen += len(np.unique(selection.indices))
        assert chosen > 20

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_sets(self, name):
        default, models = _hand_built(name)
        matrix = _probe()
        assert_inputs_match(SelectionTables(default, models).select(matrix), matrix)

    @pytest.mark.parametrize("budget", [1, 100, 1000])
    def test_tiny_cell_budget(self, monkeypatch, budget):
        default, models = _hand_built("repeated-step-feature")
        matrix = _probe(n=97)
        whole = SelectionTables(default, models).select(matrix)
        monkeypatch.setattr(model_selection, "_CELL_BUDGET", budget)
        blocked = SelectionTables(default, models).select(matrix)
        assert blocked.inputs.tobytes() == whole.inputs.tobytes()
        assert_inputs_match(blocked, matrix)

    def test_non_finite_rows(self):
        default, models = _hand_built("dependent-pair")
        rng = np.random.default_rng(13)
        matrix = _probe(n=120, seed=6)
        matrix[rng.random(matrix.shape) < 0.08] = np.nan
        matrix[rng.random(matrix.shape) < 0.02] = np.inf
        matrix[rng.random(matrix.shape) < 0.02] = -np.inf
        with np.errstate(all="ignore"):
            assert_inputs_match(SelectionTables(default, models).select(matrix), matrix)


# -- the model set's cached tables -----------------------------------------------------


class TestModelSetTables:
    def _set(self) -> OperatorModelSet:
        default, models = _hand_built("dependent-pair")
        return OperatorModelSet(OperatorFamily.FILTER, "cpu", models=models,
                                default_model=default)

    def test_tables_are_built_once(self):
        model_set = self._set()
        matrix = _probe()
        first = model_set.selection_tables()
        model_set.select_batch(matrix)
        assert model_set.selection_tables() is first

    def test_tables_follow_reassignment(self):
        model_set = self._set()
        matrix = _probe()
        model_set.select_batch(matrix)
        model_set.default_model = model_set.models[2]
        assert_matches_reference(model_set.select_batch(matrix), model_set.default_model,
                                 model_set.models, matrix)
        model_set.models = model_set.models[:2]
        assert_matches_reference(model_set.select_batch(matrix), model_set.default_model,
                                 model_set.models, matrix)
        model_set.models.append(_ranged("CIN1", "SINAVG1"))  # in place
        selection = model_set.select_batch(matrix)
        assert selection.candidates[2] is model_set.models[2]
        assert_matches_reference(selection, model_set.default_model, model_set.models, matrix)

    def test_deep_copy_selects_over_its_own_models(self):
        model_set = self._set()
        matrix = _probe()
        model_set.select_batch(matrix)
        clone = copy.deepcopy(model_set)
        selection = clone.select_batch(matrix)
        assert all(a is b for a, b in zip(selection.candidates, clone.models))
        clone.default_model = clone.models[1]
        assert_matches_reference(clone.select_batch(matrix), clone.default_model,
                                 clone.models, matrix)

    def test_concurrent_first_calls(self):
        default, models = _hand_built("dependent-pair")
        matrix = _probe(n=60)
        _, indices, max_ratios, used_default = reference_select(default, models, matrix)
        previous = sys.getswitchinterval()
        deadline = time.monotonic() + 2.0
        rounds = 0
        try:
            sys.setswitchinterval(1e-6)
            while rounds < 3 or (rounds < 40 and time.monotonic() < deadline):
                model_set = OperatorModelSet(OperatorFamily.FILTER, "cpu",
                                             models=list(models), default_model=default)
                barrier = threading.Barrier(8)
                results: list = [None] * 8

                def call(slot: int, model_set: OperatorModelSet = model_set,
                         barrier: threading.Barrier = barrier) -> None:
                    barrier.wait()
                    results[slot] = [model_set.select_batch(matrix) for _ in range(3)]

                threads = [threading.Thread(target=call, args=(slot,)) for slot in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                for calls in results:
                    assert calls is not None
                    for selection in calls:
                        np.testing.assert_array_equal(selection.indices, indices)
                        assert selection.max_out_ratios.tobytes() == max_ratios.tobytes()
                        np.testing.assert_array_equal(selection.used_default, used_default)
                rounds += 1
        finally:
            sys.setswitchinterval(previous)


# -- the default model is resolved by identity -----------------------------------------


def test_field_equal_default_is_not_merged_with_a_member():
    """A default field-equal to a member is still its own candidate.

    ``CombinedModel`` is a dataclass, so two models with the same family,
    resource, features, steps and MART settings compare equal even when
    they were fitted on different data.  The default must be found by
    identity (as the artifact codec does), or the set serves the member's
    estimates on in-range rows.
    """
    config = MARTConfig(n_iterations=20, max_leaves=6, learning_rate=0.2, subsample=1.0)
    train = _training_matrix(150, seed=7)
    rows = [dict(zip(NAMES, row.tolist())) for row in train]
    targets = 0.05 * train[:, NAMES.index("CIN1")]
    member = CombinedModel(OperatorFamily.FILTER, "cpu", NAMES, (), config).fit(rows, targets)
    default = CombinedModel(OperatorFamily.FILTER, "cpu", NAMES, (), config).fit(
        rows, targets * 3.0
    )
    assert member == default and member is not default
    model_set = OperatorModelSet(OperatorFamily.FILTER, "cpu", models=[member],
                                 default_model=default)
    selection = model_set.select_batch(train)
    assert selection.candidates[-1] is default
    assert selection.used_default.all()
    estimates = model_set_predict_batch(model_set, train)
    np.testing.assert_array_equal(estimates, combined_predict_batch(default, train))
    assert not np.allclose(estimates, combined_predict_batch(member, train))
