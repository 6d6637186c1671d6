"""ML lifecycle management: model registry, experiment tracking, and
pickle-free model serialization."""

from .registry import ModelRegistry, ModelVersion
from .serialize import dumps_model, loads_model
from .tracking import ExperimentTracker, Run

__all__ = [
    "ExperimentTracker",
    "ModelRegistry",
    "ModelVersion",
    "Run",
    "dumps_model",
    "loads_model",
]
