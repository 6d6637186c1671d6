"""Simulated distributed ML execution.

The tutorial's distributed-systems pillar: data-parallel BSP gradient
descent, one-shot model averaging, and parameter-server asynchrony with
bounded staleness — simulated on one node with explicit communication
accounting, so strategy comparisons (rounds, bytes, convergence per
update) are measurable without a cluster (see DESIGN.md,
"Substitutions").
"""

from .cluster import CommStats, SimulatedCluster, Worker
from .dataparallel import (
    DistributedResult,
    train_bsp_gd,
    train_model_averaging,
)
from .paramserver import (
    ParameterServer,
    ParameterServerResult,
    train_parameter_server,
)
from .partition import Partition, partition_rows

__all__ = [
    "CommStats",
    "DistributedResult",
    "ParameterServer",
    "ParameterServerResult",
    "Partition",
    "SimulatedCluster",
    "Worker",
    "partition_rows",
    "train_bsp_gd",
    "train_model_averaging",
    "train_parameter_server",
]
