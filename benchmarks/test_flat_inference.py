"""Benchmark: compiled flat-array MART kernel vs the per-tree node walk.

The flat ensemble layout (:mod:`repro.ml.flat_ensemble`) compiles a fitted
MART into contiguous arrays and evaluates all rows x all trees with
vectorised index chasing.  This benchmark measures it against the reference
per-tree fold at paper scale (1000 boosting iterations x 10 leaves, the
configuration of the source paper) and asserts

* >= 5x rows/sec at serving-shape batch sizes (the per-(family, resource)
  groups a workload estimate actually feeds the models), and
* bit-identical predictions.

Opt-in like the other reproductions: ``pytest benchmarks/test_flat_inference.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.reporting import ResultTable
from repro.ml.mart import MARTConfig, MARTRegressor

#: Paper-scale boosting budget (Section 4: 1000 iterations, <= 10 leaves).
_PAPER_MART = MARTConfig(
    n_iterations=1000, max_leaves=10, learning_rate=0.1, subsample=0.7, random_seed=7
)

_BATCH_SIZES = (128, 256, 512, 2048)
#: Serving-shape batches: the per-(family, resource) row groups a workload
#: estimate feeds each model are typically a few hundred rows.
_SERVING_BATCHES = (128, 256)
_MIN_SERVING_SPEEDUP = 5.0
_REPEATS = 7


def _interleaved_min_seconds(fn_a, fn_b, repeats: int = _REPEATS) -> tuple[float, float]:
    """Minimum wall-clock of two callables, interleaving their repeats."""
    functions = (fn_a, fn_b)
    best = [float("inf"), float("inf")]
    for round_index in range(repeats):
        order = (0, 1) if round_index % 2 == 0 else (1, 0)
        for which in order:
            started = time.perf_counter()
            functions[which]()
            best[which] = min(best[which], time.perf_counter() - started)
    return best[0], best[1]


def _fit_paper_scale_mart() -> tuple[MARTRegressor, np.ndarray]:
    rng = np.random.default_rng(41)
    n_rows, n_features = 1200, 12
    features = rng.uniform(0.0, 1e6, size=(n_rows, n_features))
    targets = (
        features[:, 0] * 2.5
        + np.sqrt(features[:, 1] * features[:, 2])
        + rng.normal(0.0, 1e4, n_rows)
    )
    model = MARTRegressor(_PAPER_MART).fit(features, targets)
    return model, features


def test_flat_kernel_speedup_at_paper_scale(printer):
    model, features = _fit_paper_scale_mart()
    forest = model.flat_forest()
    stats = forest.stats()
    assert stats.n_trees == _PAPER_MART.n_iterations

    table = ResultTable(
        experiment_id="Flat inference",
        title="Compiled flat-array kernel vs per-tree node walk (1000 trees x 10 leaves)",
        columns=["Batch rows", "Per-tree (ms)", "Flat (ms)", "Speedup (x)", "Flat rows/s"],
    )
    speedups: dict[int, float] = {}
    rng = np.random.default_rng(43)
    for batch in _BATCH_SIZES:
        x = features[rng.integers(0, features.shape[0], size=batch)]
        # Warm both paths (compile cache, allocator) and check bit-identity.
        assert np.array_equal(model.predict(x), model.predict_per_tree(x))
        per_tree_s, flat_s = _interleaved_min_seconds(
            lambda x=x: model.predict_per_tree(x), lambda x=x: model.predict(x)
        )
        speedups[batch] = per_tree_s / max(flat_s, 1e-12)
        table.add_row(**{
            "Batch rows": batch,
            "Per-tree (ms)": round(per_tree_s * 1e3, 2),
            "Flat (ms)": round(flat_s * 1e3, 2),
            "Speedup (x)": round(speedups[batch], 1),
            "Flat rows/s": int(batch / max(flat_s, 1e-12)),
        })
    table.notes = (
        f"Flat layout: {stats.n_nodes:,} nodes / {stats.array_bytes:,} bytes "
        f"({stats.dtype_summary}); min-of-{_REPEATS} interleaved timing; "
        "predictions bit-identical at every batch size."
    )
    printer(table)

    for batch in _SERVING_BATCHES:
        assert speedups[batch] >= _MIN_SERVING_SPEEDUP, (
            f"flat kernel speedup {speedups[batch]:.1f}x at {batch} rows is below "
            f"the {_MIN_SERVING_SPEEDUP:.0f}x floor"
        )

