"""Flat structure-of-arrays compilation of boosted tree ensembles.

The paper's serving argument is that MART inference is cheap enough for the
optimizer's hot loop, but a fitted :class:`~repro.ml.mart.MARTRegressor`
normally predicts by walking Python ``TreeNode`` objects tree-by-tree.  This
module compiles a fitted ensemble into one contiguous structure-of-arrays
layout — per-node ``feature_id`` / ``threshold`` / ``left`` / ``right`` /
``leaf_value`` plus per-tree root offsets — and evaluates *all rows x all
trees* with vectorised index-chasing: no Python recursion, no per-tree loop.

Execution strategy
------------------
The canonical SoA arrays double as the persisted v3 artifact section (see
:mod:`repro.core.serialization`): trees stored in pre-order with
``left == index + 1`` so a saved artifact can be ``frombuffer``/mmap'd
straight into a :class:`FlatForest` without re-walking nodes.  For prediction
the forest lazily derives an *execution plan*: trees are bucketed by depth
and embedded into perfect binary heaps (per-level feature/threshold tables,
one bottom row of leaf values), so a depth-``D`` bucket routes every
(row, tree) cursor with ``D`` branchless table gathers.  Descent uses the
swapped-children convention — ``go = (x <= threshold)`` selects slot
``2*pos + go`` with the LEFT child at the odd slot — which routes NaN
features to the RIGHT child exactly like the node-walking comparison, with
no extra negation pass.  Trees deeper than :data:`_MAX_HEAP_DEPTH` internal
levels (possible only for hand-built or adversarial trees; the paper's
10-leaf trees are far shallower) fall back to a generic ``np.where`` descent
over active row cursors on the SoA arrays.

Forest bank
-----------
The heap kernel pays a fixed cost per call (one route per depth bucket), so
serving many models on a few rows each is dominated by that cost.  A
:class:`ForestBank` instead concatenates the SoA arrays of many MART
forests, remaps each forest's feature ids into the column order of the rows
it will see, and evaluates rows of *different* models in one ragged call:
every cell is one row paired with one tree of that row's own model, every
cell descends the same number of levels (the depth of the deepest tree in
the call; leaves route to themselves) through one swapped-layout child
array ``child[2*pos + (x <= thr)]``, and each row's fold is read at its own
tree count.  The estimator serves every selected model of a batch through
one bank call; single-model prediction (:meth:`MARTRegressor.predict`,
training, the baselines) keeps the heap kernel, which wins once a model
sees more than a handful of rows.

Numerical identity
------------------
Both kernels are bit-identical to the sequential per-tree fold
``out = init; out += rate * tree.predict(X)``: per-tree leaf values are
gathered exactly, the learning-rate multiply is the same elementwise IEEE
operation, and the fold is reproduced with ``np.cumsum`` along axis 1, which
numpy evaluates sequentially (pairwise summation would break identity); the
bank pads each row's fold with zeros past its own tree count.  Per-leaf
linear refinements of
:class:`~repro.ml.transform_regression.TransformRegressor` compile into
bottom-row slope/intercept tables; ``slope * x + intercept`` matches the
``(m, 1) @ (1,)`` matmul of the node-walking path bitwise.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ml.regression_tree import TreeNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ml.mart import MARTRegressor
    from repro.ml.transform_regression import TransformRegressor

__all__ = [
    "FlatForest",
    "FlatLayoutStats",
    "ForestBank",
    "compile_mart",
    "compile_transform",
]

#: Trees with more internal levels than this skip the perfect-heap embedding
#: (whose tables grow as ``2**depth``) and route through the generic
#: ``np.where`` descent instead.
_MAX_HEAP_DEPTH = 12

#: Upper bound on ``rows x trees`` cursor cells processed per block (by a
#: forest, or by a bank at its widest model's tree count), keeping the
#: descent working set bounded for very large row batches.
_CELL_BUDGET = 1 << 21

#: ``(leaf feature id, slope, intercept)`` of one leaf's linear refinement.
LeafModel = tuple[int, float, float]


@dataclass(frozen=True)
class FlatLayoutStats:
    """Sizing summary of one compiled ensemble (for ``models inspect``)."""

    n_trees: int
    n_nodes: int
    n_leaves: int
    max_depth: int
    array_bytes: int
    dtype_summary: str


class _HeapBucket:
    """Perfect-heap tables for every tree with the same internal depth."""

    __slots__ = ("depth", "tree_index", "level_feats", "level_thrs", "values", "models")

    def __init__(
        self,
        depth: int,
        tree_index: np.ndarray,
        level_feats: list[np.ndarray],
        level_thrs: list[np.ndarray],
        values: np.ndarray,
        models: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None,
    ) -> None:
        self.depth = depth
        self.tree_index = tree_index
        self.level_feats = level_feats
        self.level_thrs = level_thrs
        self.values = values
        self.models = models


class _ExecutionPlan:
    """Depth-bucketed heaps plus the (rare) deep-tree fallback group."""

    __slots__ = ("buckets", "deep_trees")

    def __init__(self, buckets: list[_HeapBucket], deep_trees: np.ndarray) -> None:
        self.buckets = buckets
        self.deep_trees = deep_trees


class FlatForest:
    """A boosted ensemble compiled to contiguous arrays.

    ``feature_id[i] == -1`` marks node ``i`` as a leaf.  Trees are stored in
    pre-order, so for every internal node ``left[i] == i + 1`` and
    ``right[i] > i + 1`` within the same tree — descent strictly increases
    the node index, which both guarantees termination and lets a decoded
    artifact be validated with a handful of vectorised comparisons.
    ``init_`` / ``learning_rate`` are the values at compile time; callers
    whose ensemble parameters may have been mutated afterwards (the fault
    injector rewrites ``initial_prediction_`` in place) pass the current
    values to :meth:`predict` instead.
    """

    def __init__(
        self,
        feature_id: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        leaf_value: np.ndarray,
        tree_roots: np.ndarray,
        learning_rate: float,
        init_: float,
        n_features: int,
        clip_negative: bool = False,
        leaf_has_model: np.ndarray | None = None,
        leaf_model_feature: np.ndarray | None = None,
        leaf_model_slope: np.ndarray | None = None,
        leaf_model_intercept: np.ndarray | None = None,
        validate: bool = False,
    ) -> None:
        self.feature_id = np.ascontiguousarray(feature_id, dtype=np.int32)
        self.threshold = np.ascontiguousarray(threshold, dtype=np.float64)
        self.left = np.ascontiguousarray(left, dtype=np.int32)
        self.right = np.ascontiguousarray(right, dtype=np.int32)
        self.leaf_value = np.ascontiguousarray(leaf_value, dtype=np.float64)
        self.tree_roots = np.ascontiguousarray(tree_roots, dtype=np.int64)
        self.learning_rate = float(learning_rate)
        self.init_ = float(init_)
        self.n_features = int(n_features)
        self.clip_negative = bool(clip_negative)
        self.leaf_has_model = (
            None if leaf_has_model is None else np.ascontiguousarray(leaf_has_model, dtype=np.bool_)
        )
        self.leaf_model_feature = (
            None
            if leaf_model_feature is None
            else np.ascontiguousarray(leaf_model_feature, dtype=np.int32)
        )
        self.leaf_model_slope = (
            None
            if leaf_model_slope is None
            else np.ascontiguousarray(leaf_model_slope, dtype=np.float64)
        )
        self.leaf_model_intercept = (
            None
            if leaf_model_intercept is None
            else np.ascontiguousarray(leaf_model_intercept, dtype=np.float64)
        )
        self._plan: _ExecutionPlan | None = None
        self._depths: np.ndarray | None = None
        if validate:
            self._validate()

    # -- construction ----------------------------------------------------------------------------

    @classmethod
    def from_trees(
        cls,
        roots: Sequence[TreeNode],
        learning_rate: float,
        init_: float,
        n_features: int,
        clip_negative: bool = False,
        leaf_models: Sequence[dict[int, LeafModel]] | None = None,
    ) -> "FlatForest":
        """Compile ``TreeNode`` trees (pre-order walk) into flat arrays.

        ``leaf_models`` optionally maps, per tree, the stable pre-order leaf
        rank to that leaf's linear refinement (the keying used by
        :class:`~repro.ml.transform_regression.TransformRegressor`).
        """
        feature_ids: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []
        tree_roots: list[int] = []
        lm_has: list[bool] = []
        lm_feat: list[int] = []
        lm_slope: list[float] = []
        lm_intercept: list[float] = []
        with_models = leaf_models is not None
        for tree_index, root in enumerate(roots):
            tree_roots.append(len(feature_ids))
            models = leaf_models[tree_index] if with_models else None
            leaf_rank = 0
            # Iterative pre-order with child-offset backpatching: a stack
            # entry is the parent index whose ``right`` field needs the next
            # emitted node's position.
            stack: list[tuple[TreeNode, int]] = [(root, -1)]
            while stack:
                node, patch_right_of = stack.pop()
                index = len(feature_ids)
                if patch_right_of >= 0:
                    rights[patch_right_of] = index
                if node.is_leaf:
                    feature_ids.append(-1)
                    thresholds.append(0.0)
                    lefts.append(index)
                    rights.append(index)
                    values.append(float(node.value))
                    model = models.get(leaf_rank) if models is not None else None
                    if model is not None:
                        lm_has.append(True)
                        lm_feat.append(int(model[0]))
                        lm_slope.append(float(model[1]))
                        lm_intercept.append(float(model[2]))
                    else:
                        lm_has.append(False)
                        lm_feat.append(0)
                        lm_slope.append(0.0)
                        lm_intercept.append(0.0)
                    leaf_rank += 1
                else:
                    feature_ids.append(int(node.feature))
                    thresholds.append(float(node.threshold))
                    lefts.append(index + 1)
                    rights.append(-1)  # backpatched when the right child is emitted
                    values.append(0.0)
                    lm_has.append(False)
                    lm_feat.append(0)
                    lm_slope.append(0.0)
                    lm_intercept.append(0.0)
                    stack.append((node.right, index))
                    stack.append((node.left, -1))
        return cls(
            feature_id=np.asarray(feature_ids, dtype=np.int32),
            threshold=np.asarray(thresholds, dtype=np.float64),
            left=np.asarray(lefts, dtype=np.int32),
            right=np.asarray(rights, dtype=np.int32),
            leaf_value=np.asarray(values, dtype=np.float64),
            tree_roots=np.asarray(tree_roots, dtype=np.int64),
            learning_rate=learning_rate,
            init_=init_,
            n_features=n_features,
            clip_negative=clip_negative,
            leaf_has_model=np.asarray(lm_has, dtype=np.bool_) if with_models else None,
            leaf_model_feature=np.asarray(lm_feat, dtype=np.int32) if with_models else None,
            leaf_model_slope=np.asarray(lm_slope, dtype=np.float64) if with_models else None,
            leaf_model_intercept=(
                np.asarray(lm_intercept, dtype=np.float64) if with_models else None
            ),
        )

    # -- validation (decoded artifacts) ----------------------------------------------------------

    def _validate(self) -> None:
        """Structurally validate arrays that came from an untrusted artifact.

        All checks are vectorised; together with the pre-order invariant
        (children strictly after their parent) they guarantee every descent
        terminates at a leaf of the correct tree.
        """
        n_nodes = int(self.feature_id.shape[0])
        n_trees = int(self.tree_roots.shape[0])
        for name, arr in (
            ("threshold", self.threshold),
            ("left", self.left),
            ("right", self.right),
            ("leaf_value", self.leaf_value),
        ):
            if arr.shape[0] != n_nodes:
                raise ValueError(f"flat ensemble: {name} has {arr.shape[0]} entries, expected {n_nodes}")
        if n_trees and n_nodes == 0:
            raise ValueError("flat ensemble: trees declared but no nodes stored")
        if n_trees:
            if int(self.tree_roots[0]) != 0:
                raise ValueError("flat ensemble: first tree root must be node 0")
            if np.any(self.tree_roots[1:] <= self.tree_roots[:-1]):
                raise ValueError("flat ensemble: tree roots must be strictly increasing")
            if int(self.tree_roots[-1]) >= n_nodes:
                raise ValueError("flat ensemble: tree root offset out of range")
        internal = np.flatnonzero(self.feature_id >= 0)
        if internal.size:
            if int(self.feature_id[internal].max()) >= self.n_features:
                raise ValueError("flat ensemble: feature id out of range")
            if np.any(self.left[internal] != internal + 1):
                raise ValueError("flat ensemble: left child must directly follow its parent")
            rights = self.right[internal]
            if np.any(rights <= internal + 1):
                raise ValueError("flat ensemble: right child must come after the left subtree")
            # Children may not cross into the next tree's node range.
            counts = np.diff(np.concatenate([self.tree_roots, np.asarray([n_nodes], dtype=np.int64)]))
            tree_end = np.repeat(self.tree_roots + counts, counts)
            if np.any(rights >= tree_end[internal]):
                raise ValueError("flat ensemble: right child crosses a tree boundary")

    # -- basic shape -----------------------------------------------------------------------------

    @property
    def n_trees(self) -> int:
        return int(self.tree_roots.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.feature_id.shape[0])

    @property
    def has_leaf_models(self) -> bool:
        return self.leaf_has_model is not None

    def _tree_depths(self) -> np.ndarray:
        """Internal depth of every tree (0 == root is a leaf), vectorised."""
        if self._depths is not None:
            return self._depths
        n_trees = self.n_trees
        depths = np.zeros(n_trees, dtype=np.int64)
        frontier_nodes = self.tree_roots.astype(np.intp)
        frontier_tree = np.arange(n_trees, dtype=np.intp)
        level = 0
        while frontier_nodes.size:
            is_internal = self.feature_id[frontier_nodes] >= 0
            # Levels only grow, so plain assignment accumulates the max.
            depths[frontier_tree[~is_internal]] = level
            inner = frontier_nodes[is_internal]
            inner_tree = frontier_tree[is_internal]
            frontier_nodes = np.concatenate(
                [self.left[inner], self.right[inner]], dtype=np.intp, casting="unsafe"
            )
            frontier_tree = np.concatenate([inner_tree, inner_tree])
            level += 1
            if level > self.n_nodes + 1:  # pragma: no cover - guarded by _validate
                raise ValueError("flat ensemble: malformed tree exceeds node count in depth")
        self._depths = depths
        return depths

    # -- execution plan --------------------------------------------------------------------------

    def _execution_plan(self) -> _ExecutionPlan:
        """Derive (once) the depth-bucketed heap tables from the SoA arrays.

        The whole derivation is vectorised level-descent over frontier
        arrays — no per-node Python loop — so compiling a freshly decoded v3
        artifact costs a few array passes, not a tree walk.
        """
        if self._plan is not None:
            return self._plan
        depths = self._tree_depths()
        deep_mask = depths > _MAX_HEAP_DEPTH
        buckets: list[_HeapBucket] = []
        for depth in np.unique(depths[~deep_mask]) if depths.size else []:
            depth = int(depth)
            bucket_trees = np.flatnonzero((depths == depth) & ~deep_mask).astype(np.intp)
            buckets.append(self._build_bucket(depth, bucket_trees))
        plan = _ExecutionPlan(buckets, np.flatnonzero(deep_mask).astype(np.intp))
        self._plan = plan
        return plan

    def _build_bucket(self, depth: int, bucket_trees: np.ndarray) -> _HeapBucket:
        n_bucket = int(bucket_trees.shape[0])
        level_feats = [np.zeros(n_bucket << lvl, dtype=np.intp) for lvl in range(depth)]
        level_thrs = [np.full(n_bucket << lvl, np.inf, dtype=np.float64) for lvl in range(depth)]
        leaf_nodes: list[np.ndarray] = []
        leaf_starts: list[np.ndarray] = []
        leaf_widths: list[np.ndarray] = []
        frontier_nodes = self.tree_roots[bucket_trees].astype(np.intp)
        frontier_tree = np.arange(n_bucket, dtype=np.intp)
        frontier_slot = np.zeros(n_bucket, dtype=np.intp)
        for level in range(depth):
            is_leaf = self.feature_id[frontier_nodes] < 0
            leaf_nodes.append(frontier_nodes[is_leaf])
            leaf_starts.append(
                (frontier_tree[is_leaf] << depth) + (frontier_slot[is_leaf] << (depth - level))
            )
            leaf_widths.append(
                np.full(int(is_leaf.sum()), 1 << (depth - level), dtype=np.intp)
            )
            inner = frontier_nodes[~is_leaf]
            inner_tree = frontier_tree[~is_leaf]
            inner_slot = frontier_slot[~is_leaf]
            table_index = (inner_tree << level) + inner_slot
            level_feats[level][table_index] = self.feature_id[inner]
            level_thrs[level][table_index] = self.threshold[inner]
            # Swapped-children layout: LEFT at the odd slot so that
            # ``2*pos + (x <= thr)`` lands on it, RIGHT at the even slot.
            frontier_nodes = np.concatenate(
                [self.left[inner], self.right[inner]], dtype=np.intp, casting="unsafe"
            )
            frontier_tree = np.concatenate([inner_tree, inner_tree])
            frontier_slot = np.concatenate([(inner_slot << 1) + 1, inner_slot << 1])
        leaf_nodes.append(frontier_nodes)
        leaf_starts.append((frontier_tree << depth) + frontier_slot)
        leaf_widths.append(np.ones(int(frontier_nodes.shape[0]), dtype=np.intp))
        nodes = np.concatenate(leaf_nodes)
        starts = np.concatenate(leaf_starts)
        widths = np.concatenate(leaf_widths)
        # Sorted by bottom-row start offset the leaf ranges tile
        # [0, n_bucket << depth) exactly, so np.repeat fills the bottom row —
        # including every padded slot under an early leaf — in one shot.
        order = np.argsort(starts, kind="stable")
        nodes = nodes[order]
        widths = widths[order]
        values = np.repeat(self.leaf_value[nodes], widths)
        models: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        if (
            self.leaf_has_model is not None
            and self.leaf_model_feature is not None
            and self.leaf_model_slope is not None
            and self.leaf_model_intercept is not None
        ):
            models = (
                np.repeat(self.leaf_has_model[nodes], widths),
                np.repeat(self.leaf_model_feature[nodes].astype(np.intp), widths),
                np.repeat(self.leaf_model_slope[nodes], widths),
                np.repeat(self.leaf_model_intercept[nodes], widths),
            )
        return _HeapBucket(depth, bucket_trees, level_feats, level_thrs, values, models)

    # -- prediction ------------------------------------------------------------------------------

    def predict(
        self,
        features: np.ndarray,
        init: float | None = None,
        rate: float | None = None,
    ) -> np.ndarray:
        """Evaluate the full ensemble for every row of ``features``.

        ``init`` / ``rate`` override the compiled ``init_`` /
        ``learning_rate`` so callers can pass the ensemble's *current*
        parameters (which fault injection may have mutated after compile).
        Bit-identical to the sequential per-tree fold.
        """
        matrix = np.ascontiguousarray(features, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"flat ensemble: expected a 2-D matrix, got shape {matrix.shape}")
        n_rows = matrix.shape[0]
        base = self.init_ if init is None else float(init)
        lr = self.learning_rate if rate is None else float(rate)
        n_trees = self.n_trees
        contrib = np.empty((n_rows, n_trees + 1), dtype=np.float64)
        contrib[:, 0] = base
        if n_rows and n_trees:
            self._fill_tree_outputs(matrix, contrib[:, 1:])
        contrib[:, 1:] *= lr
        np.cumsum(contrib, axis=1, out=contrib)
        out = np.ascontiguousarray(contrib[:, n_trees])
        if self.clip_negative:
            np.maximum(out, 0.0, out=out)
        return out

    def _fill_tree_outputs(self, matrix: np.ndarray, out_cols: np.ndarray) -> None:
        """Write each tree's per-row output into ``out_cols[:, tree]``."""
        plan = self._execution_plan()
        n_rows = matrix.shape[0]
        # Column-major flattening: feature f of row r lives at f * n_rows + r,
        # so one fused gather index replaces 2-D fancy indexing.
        transposed = np.ascontiguousarray(matrix.T).ravel()
        # Per-call column bases: feature id -> offset into ``transposed``.
        colbases = [[feats * n_rows for feats in bucket.level_feats] for bucket in plan.buckets]
        model_colbases = [
            bucket.models[1] * n_rows if bucket.models is not None else None
            for bucket in plan.buckets
        ]
        block = max(int(_CELL_BUDGET // max(self.n_trees, 1)), 16)
        for start in range(0, n_rows, block):
            stop = min(start + block, n_rows)
            row_index = np.arange(start, stop, dtype=np.intp).reshape(-1, 1)
            for bucket, bases, model_base in zip(plan.buckets, colbases, model_colbases):
                out_cols[start:stop, bucket.tree_index] = self._route_bucket(
                    bucket, bases, model_base, transposed, row_index
                )
            if plan.deep_trees.size:
                out_cols[start:stop, plan.deep_trees] = self._route_deep(
                    plan.deep_trees, matrix[start:stop]
                )

    def _route_bucket(
        self,
        bucket: _HeapBucket,
        colbases: list[np.ndarray],
        model_colbase: np.ndarray | None,
        transposed: np.ndarray,
        row_index: np.ndarray,
    ) -> np.ndarray:
        n_block = row_index.shape[0]
        n_bucket = int(bucket.tree_index.shape[0])
        cells = (n_block, n_bucket)
        # ``pos`` folds the tree offset into the slot: at level L the global
        # table index is simply ``tree << L | slot``, so seeding with the
        # bucket-local tree number makes every later gather base-free.
        pos = np.empty(cells, dtype=np.intp)
        pos[:] = np.arange(n_bucket, dtype=np.intp)
        gather_index = np.empty(cells, dtype=np.intp)
        feature_value = np.empty(cells, dtype=np.float64)
        threshold = np.empty(cells, dtype=np.float64)
        go_left = np.empty(cells, dtype=np.bool_)
        for level in range(bucket.depth):
            np.take(colbases[level], pos, out=gather_index, mode="clip")
            gather_index += row_index
            np.take(transposed, gather_index, out=feature_value, mode="clip")
            np.take(bucket.level_thrs[level], pos, out=threshold, mode="clip")
            np.less_equal(feature_value, threshold, out=go_left)
            np.left_shift(pos, 1, out=pos)
            np.add(pos, go_left, out=pos, casting="unsafe")
        leaf = np.empty(cells, dtype=np.float64)
        np.take(bucket.values, pos, out=leaf, mode="clip")
        if bucket.models is not None and model_colbase is not None:
            has_model, _, slope, intercept = bucket.models
            np.take(model_colbase, pos, out=gather_index, mode="clip")
            gather_index += row_index
            np.take(transposed, gather_index, out=feature_value, mode="clip")
            np.take(slope, pos, out=threshold, mode="clip")
            feature_value *= threshold
            np.take(intercept, pos, out=threshold, mode="clip")
            feature_value += threshold
            np.take(has_model, pos, out=go_left, mode="clip")
            leaf = np.where(go_left, feature_value, leaf)
        return leaf

    def _route_deep(self, deep_trees: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Generic ``np.where`` descent over active row cursors (deep trees)."""
        n_block = matrix.shape[0]
        n_deep = int(deep_trees.shape[0])
        pos = np.empty((n_block, n_deep), dtype=np.intp)
        pos[:] = self.tree_roots[deep_trees].astype(np.intp)
        rows = np.broadcast_to(
            np.arange(n_block, dtype=np.intp).reshape(-1, 1), (n_block, n_deep)
        )
        active = self.feature_id[pos] >= 0
        while active.any():
            cells = np.nonzero(active)
            cursor = pos[cells]
            feature = self.feature_id[cursor]
            value = matrix[cells[0], feature]
            go_left = value <= self.threshold[cursor]
            advanced = np.where(go_left, self.left[cursor], self.right[cursor])
            pos[cells] = advanced
            active[cells] = self.feature_id[advanced] >= 0
        leaf = self.leaf_value[pos]
        if (
            self.leaf_has_model is not None
            and self.leaf_model_feature is not None
            and self.leaf_model_slope is not None
            and self.leaf_model_intercept is not None
        ):
            refined = (
                self.leaf_model_slope[pos] * matrix[rows, self.leaf_model_feature[pos]]
                + self.leaf_model_intercept[pos]
            )
            leaf = np.where(self.leaf_has_model[pos], refined, leaf)
        return leaf

    # -- decompile / stats -----------------------------------------------------------------------

    def tree_root_nodes(self) -> list[TreeNode]:
        """Rebuild ``TreeNode`` trees (inverse of :meth:`from_trees`)."""
        roots: list[TreeNode] = []
        n_nodes = self.n_nodes
        for tree in range(self.n_trees):
            start = int(self.tree_roots[tree])
            nodes: dict[int, TreeNode] = {}
            end = int(self.tree_roots[tree + 1]) if tree + 1 < self.n_trees else n_nodes
            # Children always follow their parent in pre-order, so one
            # reverse sweep has both children ready when the parent is built.
            for index in range(end - 1, start - 1, -1):
                if int(self.feature_id[index]) < 0:
                    nodes[index] = TreeNode(value=float(self.leaf_value[index]))
                else:
                    nodes[index] = TreeNode(
                        value=0.0,
                        feature=int(self.feature_id[index]),
                        threshold=float(self.threshold[index]),
                        left=nodes[int(self.left[index])],
                        right=nodes[int(self.right[index])],
                    )
            roots.append(nodes[start])
        return roots

    def leaf_models_by_rank(self) -> list[dict[int, LeafModel]]:
        """Per-tree ``{pre-order leaf rank: (feature, slope, intercept)}``."""
        if (
            self.leaf_has_model is None
            or self.leaf_model_feature is None
            or self.leaf_model_slope is None
            or self.leaf_model_intercept is None
        ):
            return [{} for _ in range(self.n_trees)]
        out: list[dict[int, LeafModel]] = []
        bounds = np.concatenate(
            [self.tree_roots, np.asarray([self.n_nodes], dtype=np.int64)]
        )
        for tree in range(self.n_trees):
            start, end = int(bounds[tree]), int(bounds[tree + 1])
            models: dict[int, LeafModel] = {}
            rank = 0
            for index in range(start, end):
                if int(self.feature_id[index]) >= 0:
                    continue
                if bool(self.leaf_has_model[index]):
                    models[rank] = (
                        int(self.leaf_model_feature[index]),
                        float(self.leaf_model_slope[index]),
                        float(self.leaf_model_intercept[index]),
                    )
                rank += 1
            out.append(models)
        return out

    def stats(self) -> FlatLayoutStats:
        arrays: list[np.ndarray] = [
            self.feature_id,
            self.threshold,
            self.left,
            self.right,
            self.leaf_value,
            self.tree_roots,
        ]
        for extra in (
            self.leaf_has_model,
            self.leaf_model_feature,
            self.leaf_model_slope,
            self.leaf_model_intercept,
        ):
            if extra is not None:
                arrays.append(extra)
        depths = self._tree_depths()
        return FlatLayoutStats(
            n_trees=self.n_trees,
            n_nodes=self.n_nodes,
            n_leaves=int(np.count_nonzero(self.feature_id < 0)),
            max_depth=int(depths.max()) if depths.size else 0,
            array_bytes=int(sum(arr.nbytes for arr in arrays)),
            dtype_summary="feature/children int32, thresholds/values float64, roots int64",
        )


class ForestBank:
    """Many MART forests in one node array, evaluated in one ragged call.

    ``models`` pairs each fitted :class:`~repro.ml.mart.MARTRegressor` with
    the columns its inputs come from: feature ``j`` of the model is column
    ``columns[j]`` of the rows it is given.  A model's id is its position in
    ``models``.  Forests with per-leaf linear models are refused.  Each
    model's ``initial_prediction_`` and learning rate are read at call time,
    as :meth:`MARTRegressor.predict` reads them.
    """

    def __init__(self, models: Sequence[tuple["MARTRegressor", Sequence[int]]]) -> None:
        self.models: tuple["MARTRegressor", ...] = tuple(model for model, _ in models)
        self.columns: tuple[np.ndarray, ...] = tuple(
            np.asarray(columns, dtype=np.intp) for _, columns in models
        )
        features: list[np.ndarray] = []
        thresholds: list[np.ndarray] = []
        children: list[np.ndarray] = []
        leaf_values: list[np.ndarray] = []
        roots: list[np.ndarray] = []
        n_trees: list[int] = []
        depths: list[int] = []
        n_nodes = 0
        for model, columns in zip(self.models, self.columns):
            forest = model.flat_forest()
            if forest.has_leaf_models:
                raise ValueError("forest bank: forests with leaf models are not supported")
            if forest.n_features != columns.shape[0]:
                raise ValueError(
                    f"forest bank: a forest over {forest.n_features} features was given "
                    f"{columns.shape[0]} columns"
                )
            internal = forest.feature_id >= 0
            feature = np.zeros(forest.n_nodes, dtype=np.intp)
            feature[internal] = columns[forest.feature_id[internal]]
            # Swapped layout: ``x <= thr`` picks slot 1, the LEFT child, and
            # NaN picks slot 0, the RIGHT one; a leaf's slots hold the leaf.
            own = np.arange(n_nodes, n_nodes + forest.n_nodes, dtype=np.intp)
            child = np.empty((forest.n_nodes, 2), dtype=np.intp)
            child[:, 0] = np.where(internal, forest.right.astype(np.intp) + n_nodes, own)
            child[:, 1] = np.where(internal, forest.left.astype(np.intp) + n_nodes, own)
            features.append(feature)
            thresholds.append(forest.threshold)
            children.append(child.ravel())
            leaf_values.append(forest.leaf_value)
            roots.append(forest.tree_roots.astype(np.intp) + n_nodes)
            tree_depths = forest._tree_depths()
            n_trees.append(forest.n_trees)
            depths.append(int(tree_depths.max()) if tree_depths.size else 0)
            n_nodes += forest.n_nodes
        self._feature = _joined(features, np.intp)
        self._threshold = _joined(thresholds, np.float64)
        self._child = _joined(children, np.intp)
        self._leaf_value = _joined(leaf_values, np.float64)
        self._roots = _joined(roots, np.intp)
        self._n_trees = np.asarray(n_trees, dtype=np.intp)
        self._tree_start = np.cumsum(self._n_trees) - self._n_trees
        self._depth = np.asarray(depths, dtype=np.intp)

    def predict(self, blocks: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
        """Each row's ensemble output under its own model, for every block.

        A block is ``(rows, model_ids)``: an ``(n, width)`` matrix and the
        bank model id of each row; blocks may differ in width.  Returns one
        array per block.  Row ``i`` of a block equals
        ``models[m].predict(rows[i:i + 1, columns[m]])`` for its id ``m``,
        bit for bit.
        """
        if not blocks:
            return []
        matrices = [np.ascontiguousarray(rows, dtype=np.float64) for rows, _ in blocks]
        offsets: list[np.ndarray] = []
        start = 0
        for matrix in matrices:
            offsets.append(start + np.arange(matrix.shape[0], dtype=np.intp) * matrix.shape[1])
            start += matrix.size
        # Every row's features in one flat buffer, row ``r`` from offsets[r];
        # the trailing pad keeps a leaf's column-0 read in bounds.
        values = np.concatenate([*(matrix.ravel() for matrix in matrices),
                                 np.zeros(1, dtype=np.float64)])
        ids = _joined([np.asarray(ids, dtype=np.intp) for _, ids in blocks], np.intp)
        out = self._predict_rows(values, _joined(offsets, np.intp), ids)
        bounds = np.cumsum([0, *(matrix.shape[0] for matrix in matrices)]).tolist()
        return [out[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]

    def _predict_rows(self, values: np.ndarray, offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
        n_rows = int(ids.shape[0])
        out = np.empty(n_rows, dtype=np.float64)
        if not n_rows:
            return out
        used, inverse = np.unique(ids, return_inverse=True)
        models = [self.models[index] for index in used.tolist()]
        init = np.array([model.initial_prediction_ for model in models], dtype=np.float64)
        rate = np.array([model.config.learning_rate for model in models], dtype=np.float64)
        depth = int(self._depth[used].max())
        block = max(_CELL_BUDGET // (int(self._n_trees[used].max()) + 1), 1)
        for start in range(0, n_rows, block):
            rows = slice(start, start + block)
            out[rows] = self._fold(
                values, offsets[rows], ids[rows], init[inverse[rows]], rate[inverse[rows]], depth
            )
        return out

    def _fold(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        ids: np.ndarray,
        init: np.ndarray,
        rate: np.ndarray,
        depth: int,
    ) -> np.ndarray:
        """``init + sum(rate * leaf)`` per row, folded tree by tree."""
        n_rows = int(ids.shape[0])
        counts = self._n_trees[ids]
        n_cells = int(counts.sum())
        # Row r's fold in row r: init, its trees' terms, then zero padding
        # past its own tree count; the cumsum is read at that count.
        folded = np.zeros((n_rows, int(counts.max()) + 1), dtype=np.float64)
        folded[:, 0] = init
        if n_cells:
            cell_row = np.repeat(np.arange(n_rows, dtype=np.intp), counts)
            rank = np.arange(n_cells, dtype=np.intp) - np.repeat(np.cumsum(counts) - counts, counts)
            pos = self._roots[self._tree_start[ids][cell_row] + rank]
            row_base = offsets[cell_row]
            gather = np.empty(n_cells, dtype=np.intp)
            feature_value = np.empty(n_cells, dtype=np.float64)
            threshold = np.empty(n_cells, dtype=np.float64)
            go_left = np.empty(n_cells, dtype=np.bool_)
            for _ in range(depth):
                np.take(self._feature, pos, out=gather, mode="clip")
                gather += row_base
                np.take(values, gather, out=feature_value, mode="clip")
                np.take(self._threshold, pos, out=threshold, mode="clip")
                np.less_equal(feature_value, threshold, out=go_left)
                np.left_shift(pos, 1, out=gather)
                gather += go_left
                np.take(self._child, gather, out=pos, mode="clip")
            leaf = np.take(self._leaf_value, pos, out=feature_value, mode="clip")
            leaf *= rate[cell_row]
            folded[cell_row, rank + 1] = leaf
        np.cumsum(folded, axis=1, out=folded)
        return folded[np.arange(n_rows, dtype=np.intp), counts]


def _joined(parts: Sequence[np.ndarray], dtype: type) -> np.ndarray:
    """``np.concatenate`` of ``parts`` as ``dtype``; empty when there are none."""
    if not parts:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def compile_mart(model: "MARTRegressor") -> FlatForest:
    """Compile a fitted :class:`MARTRegressor` into a :class:`FlatForest`."""
    if model.n_features_ is None:
        raise RuntimeError("model has not been fitted")
    return FlatForest.from_trees(
        [tree.root for tree in model.trees_ if tree.root is not None],
        learning_rate=model.config.learning_rate,
        init_=float(model.initial_prediction_),
        n_features=int(model.n_features_),
    )


def compile_transform(model: "TransformRegressor") -> FlatForest:
    """Compile a fitted :class:`TransformRegressor` (trees + leaf linears)."""
    if model.n_features_ is None:
        raise RuntimeError("model has not been fitted")
    roots: list[TreeNode] = []
    leaf_models: list[dict[int, LeafModel]] = []
    for stage in model.stages_:
        if stage.tree.root is None:  # pragma: no cover - fitted stages always have roots
            raise RuntimeError("transform stage has no fitted tree")
        roots.append(stage.tree.root)
        stage_models: dict[int, LeafModel] = {}
        for rank, (feature_index, regressor) in stage.leaf_models.items():
            if regressor.coefficients_ is None:  # pragma: no cover - fitted by construction
                continue
            stage_models[rank] = (
                int(feature_index),
                float(regressor.coefficients_[0]),
                float(regressor.intercept_),
            )
        leaf_models.append(stage_models)
    return FlatForest.from_trees(
        roots,
        learning_rate=model.config.learning_rate,
        init_=float(model.initial_prediction_),
        n_features=int(model.n_features_),
        clip_negative=bool(model.clip_negative),
        leaf_models=leaf_models,
    )
