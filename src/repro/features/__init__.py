"""Versioned feature store closing the train/serve loop.

The lifecycle pillar's missing data layer: named features declared as
row-local DSL plans over base tables (:class:`FeatureView`),
content-addressed so the same definition always has the same version;
materialized offline through the executor into the materialization
store with lineage to the base bytes (:class:`FeatureStore`); kept
fresh against dynamic tables in O(|delta|)
(:class:`FeatureViewMaintainer`); and served online **bit-identically**
to the offline bytes (:class:`OnlineFeatureServer`), with a
:class:`DriftGate` that holds or rolls back canary promotion when
serving-side feature distributions shift. See DESIGN.md, "Feature
store"; gated by E27 (``benchmarks/bench_features.py``).
"""

from .gate import DEFAULT_MIN_OBSERVATIONS, DriftGate
from .online import OnlineFeatureServer
from .store import FeatureStore, FeatureViewMaintainer, MaterializedFeatures
from .view import FLAGS, ColumnSpace, FeatureView

__all__ = [
    "DEFAULT_MIN_OBSERVATIONS",
    "ColumnSpace",
    "DriftGate",
    "FLAGS",
    "FeatureStore",
    "FeatureView",
    "FeatureViewMaintainer",
    "MaterializedFeatures",
    "OnlineFeatureServer",
]
