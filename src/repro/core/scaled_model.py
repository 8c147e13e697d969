"""Training-data transformation for scaled models (paper Section 6.1).

A *scaled model* differs from the default model in three ways:

1. it predicts resource usage per unit of the scaling function value,
   i.e. the training targets are divided by ``g(F̂)``;
2. the outlier feature ``F̂`` is removed from the input feature set;
3. every feature that *depends* on ``F̂`` (Table 3) is normalised by dividing
   its value by ``F̂`` — both at training time and at prediction time —
   so that a single root cause (e.g. an excessive tuple count) does not get
   scaled twice.

This module holds a model's scaling steps and the division floor they share.
:class:`~repro.core.combined_model.CombinedModel` applies the rules
vectorised over feature matrices (``transform_matrix`` / ``_step_factors``);
``tests/reference.py`` states them over feature dictionaries, and the
batch-estimation tests pin the two together.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scaling import ScalingFunction

__all__ = ["MIN_DIVISOR", "ScalingStep"]

#: Guard against division by zero when normalising dependent features and
#: scaling training targets.
MIN_DIVISOR = 1e-9


@dataclass(frozen=True)
class ScalingStep:
    """One (feature, scaling function) pair of a combined model.

    Multi-feature scaling applies steps sequentially: the model is first
    scaled by ``steps[0]``, the resulting scaled model by ``steps[1]``, etc.
    (Section 6.1, "Scaling by Multiple Features").
    """

    feature: str
    function: ScalingFunction
