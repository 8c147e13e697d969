"""The paper's contribution: robust operator-level resource estimation.

The package combines MART models (accurate in-distribution) with
asymptotic *scaling functions* (robust out-of-distribution):

* :mod:`repro.core.scaling` — the scaling-function library and the
  empirical selection framework of Section 6.2;
* :mod:`repro.core.scaled_model` — the scaling steps that turn a default
  model into a scaled model (Section 6.1);
* :mod:`repro.core.combined_model` — scaling function ∘ scaled MART model;
* :mod:`repro.core.model_selection` — the online ``out_ratio`` heuristic of
  Section 6.3;
* :mod:`repro.core.trainer` — the off-line training pipeline producing one
  model set per (operator family, resource);
* :mod:`repro.core.estimator` — the on-line API estimating resources for
  operators, pipelines and whole plans;
* :mod:`repro.core.serialization` — compact model encoding used for the
  Section 7.3 memory accounting.
"""

from repro.core.combined_model import CombinedModel
from repro.core.estimator import ResourceEstimator, WorkloadEstimate
from repro.core.model_selection import BatchSelection
from repro.core.scaling import (
    SCALING_FUNCTIONS,
    ScalingFunction,
    ScalingFunctionSelector,
    default_scaling_function,
    make_scaling_function,
)
from repro.core.serialization import (
    EstimatorCodecError,
    ModelSizeReport,
    estimator_from_bytes,
    estimator_to_bytes,
    load_estimator,
    save_estimator,
)
from repro.core.trainer import FamilyTrainingData, OperatorModelSet, ScalingModelTrainer, TrainerConfig

__all__ = [
    "CombinedModel",
    "ResourceEstimator",
    "WorkloadEstimate",
    "BatchSelection",
    "SCALING_FUNCTIONS",
    "ScalingFunction",
    "ScalingFunctionSelector",
    "default_scaling_function",
    "make_scaling_function",
    "EstimatorCodecError",
    "ModelSizeReport",
    "estimator_from_bytes",
    "estimator_to_bytes",
    "load_estimator",
    "save_estimator",
    "FamilyTrainingData",
    "OperatorModelSet",
    "ScalingModelTrainer",
    "TrainerConfig",
]
