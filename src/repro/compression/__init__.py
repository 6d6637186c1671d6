"""Compressed Linear Algebra (CLA).

Column-group compression (OLE, RLE, DDC, uncompressed fallback) with
linear-algebra kernels that run directly on the compressed form, plus a
sampling-based planner for scheme selection and co-coding.
"""

from .colgroup import ColumnGroup, UncompressedGroup, build_dictionary
from .ddc import DDCGroup, estimated_ddc_bytes
from .estimators import (
    ColumnStats,
    estimate_column_stats,
    estimate_distinct,
    estimate_joint_distinct,
    exact_column_stats,
)
from .matrix import CompressedMatrix
from .ole import OLEGroup, estimated_ole_bytes
from .planner import (
    ColumnPlan,
    CompressionPlan,
    build_groups,
    plan_column,
    plan_matrix,
)
from .rle import RLEGroup, count_runs, estimated_rle_bytes

__all__ = [
    "ColumnGroup",
    "ColumnPlan",
    "ColumnStats",
    "CompressedMatrix",
    "CompressionPlan",
    "DDCGroup",
    "OLEGroup",
    "RLEGroup",
    "UncompressedGroup",
    "build_dictionary",
    "build_groups",
    "count_runs",
    "estimate_column_stats",
    "estimate_distinct",
    "estimate_joint_distinct",
    "estimated_ddc_bytes",
    "estimated_ole_bytes",
    "estimated_rle_bytes",
    "exact_column_stats",
    "plan_column",
    "plan_matrix",
]
