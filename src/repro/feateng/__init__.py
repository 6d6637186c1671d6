"""Feature-engineering management: Columbus-style subset exploration and
provenance-tracking transformation pipelines."""

from .columbus import FeatureSubsetExplorer, SubsetFit, solve_subset_naive
from .drift import (
    ColumnDrift,
    DriftReport,
    DriftStats,
    bucket_counts,
    detect_drift,
    frozen_edges,
    ks_statistic,
    psi_statistic,
    tv_statistic,
)
from .pipeline import Pipeline, Provenance, ProvenanceRecord
from .profiling import (
    ColumnProfile,
    profile_column,
    profile_table,
    training_data_report,
)
from .transform import TableEncoder, TransformSpec

__all__ = [
    "ColumnDrift",
    "ColumnProfile",
    "DriftReport",
    "DriftStats",
    "FeatureSubsetExplorer",
    "Pipeline",
    "Provenance",
    "ProvenanceRecord",
    "SubsetFit",
    "TableEncoder",
    "TransformSpec",
    "bucket_counts",
    "detect_drift",
    "frozen_edges",
    "ks_statistic",
    "profile_column",
    "profile_table",
    "psi_statistic",
    "solve_subset_naive",
    "training_data_report",
    "tv_statistic",
]
