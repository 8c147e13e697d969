"""MART: Multiple Additive Regression Trees.

MART is least-squares stochastic gradient boosting (Friedman's gradient
boosting machine) over small regression trees.  Each boosting iteration fits
a tree to the residual errors of the ensemble built so far, optionally on a
random subsample of the training rows, and adds the shrunken tree to the
ensemble.  The properties the paper relies on hold for this implementation:

* arbitrary non-linear (and discontinuous) dependencies can be fitted
  because each tree partitions the feature space freely;
* no feature normalisation is required (splits are order-based);
* the model cannot *extrapolate*: predictions for feature values outside the
  training range are constants determined by the outermost leaves — which is
  precisely the weakness the paper's scaling framework corrects.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.flat_ensemble import FlatForest, compile_mart
from repro.ml.regression_tree import RegressionTree

__all__ = ["MARTRegressor", "MARTConfig"]


@dataclass(frozen=True)
class MARTConfig:
    """Hyper-parameters of a MART ensemble.

    The paper trains with 1000 boosting iterations and at most 10 leaves per
    tree; the library defaults are smaller so that the full experiment suite
    runs quickly, and the benchmark harness can raise them to paper scale.
    """

    n_iterations: int = 150
    max_leaves: int = 10
    learning_rate: float = 0.1
    subsample: float = 0.7
    min_samples_leaf: int = 2
    random_seed: int = 7


class MARTRegressor:
    """Stochastic gradient-boosted regression trees (least-squares loss)."""

    def __init__(self, config: MARTConfig | None = None, **overrides: object) -> None:
        base = config or MARTConfig()
        if overrides:
            base = MARTConfig(**{**base.__dict__, **overrides})  # type: ignore[arg-type]
        if base.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if not 0.0 < base.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < base.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.config = base
        self.initial_prediction_: float = 0.0
        self._trees: list[RegressionTree] | None = []
        self._compiled: FlatForest | None = None
        self.n_features_: int | None = None
        self.feature_range_: tuple[np.ndarray, np.ndarray] | None = None

    # -- compiled representation --------------------------------------------------------------
    @property
    def trees_(self) -> list[RegressionTree]:
        """The fitted trees, materialised on demand.

        A model restored from an artifact holds only the compiled
        :class:`FlatForest`; accessing ``trees_`` decompiles it back into
        ``TreeNode`` trees (introspection, the compact size encoding).
        """
        if self._trees is None:
            assert self._compiled is not None
            trees: list[RegressionTree] = []
            for root in self._compiled.tree_root_nodes():
                tree = RegressionTree(
                    max_leaves=max(self.config.max_leaves, 2),
                    min_samples_leaf=self.config.min_samples_leaf,
                )
                tree.root = root
                tree.n_features_ = self._compiled.n_features
                trees.append(tree)
            self._trees = trees
        return self._trees

    @trees_.setter
    def trees_(self, trees: list[RegressionTree]) -> None:
        self._trees = trees
        self._compiled = None

    def flat_forest(self) -> FlatForest:
        """The ensemble compiled to flat arrays (cached; see flat_ensemble)."""
        if self._compiled is None:
            self._compiled = compile_mart(self)
        return self._compiled

    def _set_compiled(self, forest: FlatForest) -> None:
        """Adopt a decoded flat forest without materialising ``TreeNode``s."""
        self._trees = None
        self._compiled = forest

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if state["_trees"] is None:
            state["_trees"] = self.trees_  # pickle the portable representation
        state["_compiled"] = None
        return state

    # -- fitting ----------------------------------------------------------------------------
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "MARTRegressor":
        """Fit the ensemble on ``features`` (n, d) and ``targets`` (n,)."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if targets.ndim != 1 or targets.shape[0] != features.shape[0]:
            raise ValueError("targets must be 1-D and aligned with features")
        if features.shape[0] == 0:
            raise ValueError("cannot fit MART on an empty dataset")
        cfg = self.config
        rng = np.random.default_rng(cfg.random_seed)
        n_rows = features.shape[0]
        self.n_features_ = features.shape[1]
        self.feature_range_ = (features.min(axis=0), features.max(axis=0))

        self.initial_prediction_ = float(targets.mean())
        predictions = np.full(n_rows, self.initial_prediction_, dtype=np.float64)
        self.trees_ = []

        sample_size = max(int(round(cfg.subsample * n_rows)), min(n_rows, 2))
        for _ in range(cfg.n_iterations):
            residuals = targets - predictions
            if np.max(np.abs(residuals)) < 1e-12:
                break
            if sample_size < n_rows:
                rows = rng.choice(n_rows, size=sample_size, replace=False)
            else:
                rows = np.arange(n_rows, dtype=np.int64)
            tree = RegressionTree(
                max_leaves=cfg.max_leaves, min_samples_leaf=cfg.min_samples_leaf
            )
            tree.fit(features[rows], residuals[rows])
            update = tree.predict(features)
            predictions += cfg.learning_rate * update
            self.trees_.append(tree)
        return self

    # -- prediction ---------------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n, d) or a single row (d,)."""
        if self.n_features_ is None:
            raise RuntimeError("model has not been fitted")
        features = np.asarray(features, dtype=np.float64)
        single = features.ndim == 1
        if single:
            features = features.reshape(1, -1)
        if features.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {features.shape[1]}"
            )
        # ``initial_prediction_`` / ``learning_rate`` are passed at call time:
        # they may have been mutated (e.g. by fault injection) after compile.
        out = self.flat_forest().predict(
            features, init=self.initial_prediction_, rate=self.config.learning_rate
        )
        return out[0:1] if single else out

    def predict_per_tree(self, features: np.ndarray) -> np.ndarray:
        """Reference node-walking path: the sequential per-tree fold.

        Kept for parity testing and benchmarking against the compiled
        flat-array kernel; :meth:`predict` must be bit-identical to this.
        """
        if self.n_features_ is None:
            raise RuntimeError("model has not been fitted")
        features = np.asarray(features, dtype=np.float64)
        single = features.ndim == 1
        if single:
            features = features.reshape(1, -1)
        if features.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {features.shape[1]}"
            )
        out = np.full(features.shape[0], self.initial_prediction_, dtype=np.float64)
        rate = self.config.learning_rate
        for tree in self.trees_:
            out += rate * tree.predict(features)
        return out[0:1] if single else out

    # -- introspection -----------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        if self._trees is None:
            assert self._compiled is not None
            return self._compiled.n_trees
        return len(self._trees)

    def training_range(self, feature_index: int) -> tuple[float, float]:
        """(low, high) of a feature over the training data (for out_ratio)."""
        if self.feature_range_ is None:
            raise RuntimeError("model has not been fitted")
        low, high = self.feature_range_
        return float(low[feature_index]), float(high[feature_index])

    def staged_predict(self, features: np.ndarray, every: int = 10) -> list[np.ndarray]:
        """Predictions after every ``every`` boosting iterations (for diagnostics)."""
        if self.n_features_ is None:
            raise RuntimeError("model has not been fitted")
        features = np.asarray(features, dtype=np.float64)
        out = np.full(features.shape[0], self.initial_prediction_, dtype=np.float64)
        rate = self.config.learning_rate
        stages: list[np.ndarray] = []
        for i, tree in enumerate(self.trees_, start=1):
            out += rate * tree.predict(features)
            if i % every == 0 or i == len(self.trees_):
                stages.append(out.copy())
        return stages
