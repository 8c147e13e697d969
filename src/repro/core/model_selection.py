"""Online model selection (paper Section 6.3).

For every operator instance of an incoming query the estimator must choose
among the default model and the available combined models.  The heuristic
relies on the monotonic relationship between the scalable features and
resource usage: the further a feature value falls outside the range a model
was trained on (its ``out_ratio``), the less we trust that model for this
instance.

Selection rule:

1. if the default model's out_ratio is zero for every feature, use it;
2. otherwise use the model whose *maximum* out_ratio over its input features
   is smallest;
3. break ties by (a) preferring fewer scaling features and (b) comparing the
   second-largest out_ratio, third-largest, and so on; candidates still tied
   keep the earliest one.

Selection runs over :class:`SelectionTables`, built once per model set from
its candidates' scaling steps and training ranges: per scaling-step position
the source column and the dependent-column mask of every candidate, plus
(candidates × features) ``lows``/``highs``/``widths`` and known-input masks
in each candidate's transformed space.  One call then makes a single pass
over a (rows × candidates × features) copy of the matrix: it divides the
copy step by step exactly as :meth:`CombinedModel.transform_matrix` does,
computes every out_ratio (a transformed value's distance from the
candidate's training interval over the interval's width, floored at 1e-9),
sorts each profile in descending order (columns that are not a candidate's
inputs are padded with ``_PAD``, which sorts below every real out_ratio),
and picks each row's model with one stable ``np.lexsort`` over the keys (max
out_ratio, #scaling features, out_ratio tail).  Each row's slice of the
working copy for its chosen candidate is that candidate's transformed input,
the rows :meth:`CombinedModel.transform_matrix` would compute, so serving
feeds it straight to the model kernel.  The working copy is processed in row
blocks of at most ``_CELL_BUDGET`` cells, so a large offline batch cannot
balloon memory.

NaN keys rank last, as ``np.lexsort`` orders them: a candidate whose key has
a NaN in some column loses to every candidate whose keys agree with it
before that column and hold a number there.  NaN out_ratios arise only from
non-finite features, which only the unguarded estimation path passes to
selection, or from overflow of feature values past ~1e299.

All candidates share the default model's ``feature_names`` (the trainer
fits every model of a family over the same canonical feature tuple), so one
matrix serves every candidate.  :class:`~repro.core.trainer.OperatorModelSet`
caches the tables of its models; ``SelectionTables(default_model,
models).select(matrix)`` selects over any other candidate list.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.combined_model import CombinedModel
from repro.core.scaled_model import MIN_DIVISOR
from repro.features.dependencies import dependent_features

__all__ = ["BatchSelection", "SelectionTables"]

#: Length of the out_ratio tail used for tie-breaking (``profile[1:8]``).
_PROFILE_TAIL = 7
#: Pad value for missing tail entries; any real out_ratio (>= 0) beats it,
#: matching Python's shorter-tuple-compares-less semantics.
_PAD = -1.0
#: Sort keys per (row, candidate): max out_ratio, #scaling features, tail.
_N_KEYS = 2 + _PROFILE_TAIL
#: Upper bound on the (rows × candidates × features) cells of one working
#: block (2 MiB per float64 temporary).
_CELL_BUDGET = 1 << 18


@dataclass(frozen=True)
class BatchSelection:
    """Model choices for every row of a feature matrix."""

    #: Candidate models in selection order (``models`` plus the default).
    candidates: list[CombinedModel]
    #: Index into ``candidates`` chosen for each row.
    indices: np.ndarray
    #: Maximum out_ratio of the chosen model for each row.
    max_out_ratios: np.ndarray
    #: Whether each row fell back to the default model.
    used_default: np.ndarray
    #: Each row after its chosen candidate's scaling transform, in the raw
    #: column order: the candidate's input columns of it are that row of
    #: :meth:`CombinedModel.transform_matrix`, bit for bit.
    inputs: np.ndarray
    #: The tables the selection ran over (``candidates`` is their list).
    tables: "SelectionTables"


@dataclass(frozen=True)
class _StepTable:
    """One scaling-step position across all candidates.

    A candidate's step at this position divides the ``dependents`` columns
    of its working copy by ``max(|raw|, MIN_DIVISOR)``, where ``raw`` is the
    working copy's ``columns`` entry, the original matrix's when the step
    repeats an already removed feature (``from_matrix``), or 0.0 when the
    feature is not a column (``missing``).  Candidates with fewer steps have
    no dependents here.
    """

    columns: np.ndarray  # (C,) intp
    from_matrix: np.ndarray | None  # candidate indices, or None when empty
    missing: np.ndarray | None  # candidate indices, or None when empty
    dependents: np.ndarray  # (C, F) bool


class SelectionTables:
    """Stacked selection inputs of one candidate set, built once and read-only.

    ``candidates`` is ``models`` plus the default model when it is not among
    them (by identity).  The tables hold the candidates' scaling steps and
    training ranges; :meth:`serves` tells whether they still describe a given
    ``(default_model, models)`` pair.
    """

    def __init__(self, default_model: CombinedModel, models: list[CombinedModel]) -> None:
        candidates = list(models)
        default_index = next(
            (i for i, model in enumerate(candidates) if model is default_model), None
        )
        if default_index is None:
            candidates.append(default_model)
            default_index = len(candidates) - 1
        self._sources: tuple[CombinedModel, ...] = (default_model, *models)
        self.candidates: tuple[CombinedModel, ...] = tuple(candidates)
        self.default_index = default_index
        self.n_features = len(default_model.feature_names)

        n_candidates, n_features = len(candidates), self.n_features
        n_steps = max(len(model.steps) for model in candidates)
        columns = np.zeros((n_steps, n_candidates), dtype=np.intp)
        from_matrix = np.zeros((n_steps, n_candidates), dtype=bool)
        missing = np.zeros((n_steps, n_candidates), dtype=bool)
        dependents = np.zeros((n_steps, n_candidates, n_features), dtype=bool)
        lows = np.zeros((n_candidates, n_features), dtype=np.float64)
        highs = np.zeros((n_candidates, n_features), dtype=np.float64)
        is_input = np.zeros((n_candidates, n_features), dtype=bool)
        known = np.zeros((n_candidates, n_features), dtype=bool)
        for c, model in enumerate(candidates):
            index = {name: i for i, name in enumerate(model.feature_names)}
            removed: set[str] = set()
            for s, step in enumerate(model.steps):
                column = index.get(step.feature)
                if column is None:
                    missing[s, c] = True
                else:
                    columns[s, c] = column
                    from_matrix[s, c] = step.feature in removed
                for dependent in dependent_features(step.feature):
                    dep_column = index.get(dependent)
                    if dep_column is not None and dependent not in removed:
                        dependents[s, c, dep_column] = True
                removed.add(step.feature)
            for name in model.input_features_:
                column = index[name]
                is_input[c, column] = True
                known[c, column] = name in model.training_low_
                lows[c, column] = model.training_low_.get(name, 0.0)
                highs[c, column] = model.training_high_.get(name, 0.0)

        self._steps = tuple(
            _StepTable(
                columns=columns[s],
                from_matrix=np.flatnonzero(from_matrix[s]) if from_matrix[s].any() else None,
                missing=np.flatnonzero(missing[s]) if missing[s].any() else None,
                dependents=dependents[s],
            )
            for s in range(n_steps)
        )
        # Ratios are overridden wherever a column is not a known input (0.0
        # for unknown inputs, _PAD for non-inputs); a unit width there keeps
        # the discarded ratio free of overflow.
        self._override = ~(is_input & known)
        self._fill = np.where(is_input, 0.0, _PAD)
        self._lows = lows
        self._highs = highs
        self._widths = np.where(self._override, 1.0, np.maximum(highs - lows, 1e-9))
        self._has_inputs = is_input.any(axis=1)
        self._n_scaling = np.array(
            [float(model.n_scaling_features) for model in candidates], dtype=np.float64
        )
        self._candidate_range = np.arange(n_candidates, dtype=np.intp)

    def serves(self, default_model: CombinedModel, models: list[CombinedModel]) -> bool:
        """Whether these tables were built from exactly this pair (by identity)."""
        sources = self._sources
        return (
            sources[0] is default_model
            and len(sources) == len(models) + 1
            and all(built is model for built, model in zip(sources[1:], models))
        )

    def select(self, matrix: np.ndarray) -> BatchSelection:
        """Choose a model for every row of a raw feature matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_features:
            raise ValueError(
                f"expected an (n, {self.n_features}) feature matrix, got shape {matrix.shape}"
            )
        n = matrix.shape[0]
        block = max(1, _CELL_BUDGET // (len(self.candidates) * self.n_features))
        if n <= block:
            indices, max_ratios, in_range, inputs = self._select_block(matrix)
        else:
            indices = np.empty(n, dtype=np.intp)
            max_ratios = np.empty(n, dtype=np.float64)
            in_range = np.empty(n, dtype=bool)
            inputs = np.empty((n, self.n_features), dtype=np.float64)
            for start in range(0, n, block):
                rows = slice(start, start + block)
                (
                    indices[rows], max_ratios[rows], in_range[rows], inputs[rows]
                ) = self._select_block(matrix[rows])
        return BatchSelection(
            candidates=list(self.candidates),
            indices=indices.astype(np.int64, copy=False),
            max_out_ratios=max_ratios,
            used_default=in_range | (indices == self.default_index),
            inputs=inputs,
            tables=self,
        )

    def _select_block(
        self, matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(chosen index, its max out_ratio, rule-1 mask, chosen transformed
        row) for one row block."""
        n = matrix.shape[0]
        n_candidates = len(self.candidates)
        work = np.repeat(matrix[:, np.newaxis, :], n_candidates, axis=1)
        for step in self._steps:
            raw = work[:, self._candidate_range, step.columns]
            if step.from_matrix is not None:
                raw[:, step.from_matrix] = matrix[:, step.columns[step.from_matrix]]
            if step.missing is not None:
                raw[:, step.missing] = 0.0
            divisor = np.maximum(np.abs(raw), MIN_DIVISOR)
            np.divide(work, divisor[:, :, np.newaxis], out=work, where=step.dependents)
        ratios = (
            np.maximum(self._lows - work, 0.0) + np.maximum(work - self._highs, 0.0)
        ) / self._widths
        np.copyto(ratios, self._fill, where=self._override)
        ratios.sort(axis=2)  # ascending: the max is last, _PAD entries first

        n_features = self.n_features
        tail = min(_PROFILE_TAIL, n_features - 1)
        # np.lexsort keys, least significant first: the tail from the 8th
        # largest out_ratio up to the 2nd, #scaling features, max out_ratio,
        # and the row, so each row's candidates sort together.
        keys = np.empty((_N_KEYS + 1, n, n_candidates), dtype=np.float64)
        keys[: _PROFILE_TAIL - tail] = _PAD
        keys[_PROFILE_TAIL - tail : _PROFILE_TAIL] = ratios[
            :, :, n_features - 1 - tail : n_features - 1
        ].transpose(2, 0, 1)
        keys[_PROFILE_TAIL] = self._n_scaling
        max_ratios = np.where(self._has_inputs, ratios[:, :, n_features - 1], 0.0)
        keys[_PROFILE_TAIL + 1] = max_ratios
        keys[_N_KEYS] = np.arange(n, dtype=np.float64)[:, np.newaxis]
        order = np.lexsort(keys.reshape(_N_KEYS + 1, n * n_candidates))
        # The sort is stable, so the earliest of tied candidates comes first.
        rows = np.arange(n, dtype=np.intp)
        chosen = order[::n_candidates] - rows * n_candidates
        chosen_max = max_ratios[rows, chosen]

        # Rule 1: rows the default model covers entirely in-range use it.
        in_range = max_ratios[:, self.default_index] <= 0.0
        chosen[in_range] = self.default_index
        chosen_max[in_range] = 0.0
        return chosen, chosen_max, in_range, work[rows, chosen]
