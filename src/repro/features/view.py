"""Versioned feature views: named features as row-local DSL plans.

A :class:`FeatureView` declares an ordered set of named features, each a
DSL expression over the columns of a base table. The definition is
content-addressed through the materialization layer's canonical plan
serialization: :attr:`FeatureView.version` is a SHA-256 over the
entity key plus every feature's canonical plan, so the same definition
always yields the same version and any edit — an operator, a constant,
a column rename, feature order — yields a new one. The version is what
:mod:`repro.lifecycle` records on a :class:`ModelVersion` and what the
drift gate checks at promotion time.

Features must be **row-local**: elementwise expressions (plus scalar
constants) only, validated at declaration time by walking the
instantiated plan. Row-locality is the property the whole store leans
on — computing a feature over an n-row batch applies the identical
per-element float operations as computing it over any single row, so
the online path's one-row recompute is *bitwise* equal to the offline
batch bytes, and a delta refresh can fold just the changed rows.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Mapping

import numpy as np

from ..errors import FeatureStoreError
from ..lang.ast import Binary, Constant, Data, Node, Unary, walk
from ..lang.dsl import MExpr, matrix
from ..compiler.cache import PlanCache
from ..compiler.planner import compile_expr
from ..materialize.fingerprint import Fingerprint, canonical_plan
from ..runtime import execute
from ..storage.lineage import table_fingerprint
from ..storage.table import Table

#: fingerprint namespace; bump on any change to version semantics.
FLAGS = "features/v1"

#: row count features are instantiated at for validation/versioning —
#: 2 rows, so a constant-only (non-row-local) feature is caught by its
#: (1, 1) output shape, which n=1 could not distinguish.
_PROBE_ROWS = 2

_ROW_LOCAL_NODES = (Data, Constant, Binary, Unary)


class ColumnSpace:
    """Column namespace handed to feature builders.

    ``cols.price`` (or ``cols["price"]``) is the base table's column as
    an (n, 1) DSL matrix; every access is recorded so the view knows
    exactly which base columns a feature reads.
    """

    def __init__(self, num_rows: int, referenced: set[str]):
        self._num_rows = num_rows
        self._referenced = referenced

    def __getitem__(self, name: str) -> MExpr:
        self._referenced.add(name)
        return matrix(name, (self._num_rows, 1))

    def __getattr__(self, name: str) -> MExpr:
        if name.startswith("_"):
            raise AttributeError(name)
        return self[name]


class FeatureView:
    """An ordered, versioned set of named row-local features.

    Args:
        name: the view's human name (labels, ledger entries).
        entity_key: base-table column uniquely identifying each row;
            the online path serves by entity value.
        features: ordered mapping of feature name -> builder. A builder
            receives a :class:`ColumnSpace` and returns the feature's
            DSL expression (an :class:`MExpr` or raw AST node).
    """

    def __init__(
        self,
        name: str,
        entity_key: str,
        features: Mapping[str, Callable[[ColumnSpace], MExpr | Node]],
    ):
        if not features:
            raise FeatureStoreError(f"view {name!r} declares no features")
        self.name = name
        self.entity_key = entity_key
        self._builders = dict(features)
        self.feature_names: tuple[str, ...] = tuple(features)
        referenced: set[str] = set()
        probe = {
            fname: self._instantiate(fname, _PROBE_ROWS, referenced)
            for fname in self.feature_names
        }
        for fname, node in probe.items():
            self._validate_row_local(fname, node)
        self.referenced_columns: tuple[str, ...] = tuple(sorted(referenced))
        if entity_key in self.feature_names:
            raise FeatureStoreError(
                f"view {name!r}: entity key {entity_key!r} collides with "
                f"a feature name"
            )
        self.version = self._version_of(probe)
        #: compiled plans per (feature, num_rows): delta batches arrive in
        #: a handful of sizes (1 for online recompute, the delta size for
        #: refresh, the table size for materialization)
        self.plan_cache = PlanCache()

    # -- definition identity -------------------------------------------
    def _instantiate(
        self, fname: str, num_rows: int, referenced: set[str] | None = None
    ) -> Node:
        sink: set[str] = set() if referenced is None else referenced
        expr = self._builders[fname](ColumnSpace(num_rows, sink))
        node = expr.node if isinstance(expr, MExpr) else expr
        if not isinstance(node, Node):
            raise FeatureStoreError(
                f"feature {fname!r} builder returned {type(expr).__name__}, "
                f"not a DSL expression"
            )
        return node

    def _validate_row_local(self, fname: str, node: Node) -> None:
        for sub in walk(node):
            if not isinstance(sub, _ROW_LOCAL_NODES):
                raise FeatureStoreError(
                    f"feature {fname!r} is not row-local: "
                    f"{type(sub).__name__} nodes mix rows"
                )
            if isinstance(sub, Constant) and sub.shape != (1, 1):
                raise FeatureStoreError(
                    f"feature {fname!r} embeds a non-scalar constant "
                    f"{sub.shape}; only scalars are row-local"
                )
        if node.shape != (_PROBE_ROWS, 1):
            raise FeatureStoreError(
                f"feature {fname!r} has shape {node.shape} over "
                f"{_PROBE_ROWS} rows; it must read at least one column "
                f"and produce one value per row"
            )

    def _version_of(self, probe: dict[str, Node]) -> str:
        h = hashlib.sha256()
        h.update(FLAGS.encode("utf-8"))
        h.update(b"|entity:")
        h.update(self.entity_key.encode("utf-8"))
        for fname in self.feature_names:
            canon, order = canonical_plan(probe[fname])
            h.update(b"|feature:")
            h.update(fname.encode("utf-8"))
            h.update(b"=")
            h.update(canon.encode("utf-8"))
            h.update(b"@")
            h.update(",".join(order).encode("utf-8"))
        return h.hexdigest()

    def fingerprint(self, table: Table) -> Fingerprint:
        """Content address of this view *over this data*: the view
        version crossed with the base bytes it reads (entity key plus
        referenced columns), so the materialization store can only hit
        when both the definition and the data are unchanged."""
        return Fingerprint(
            structural=self.version,
            operands=(self.base_fingerprint(table),),
            flags=FLAGS,
        )

    def base_fingerprint(self, table: Table) -> str:
        """``table:sha256`` over exactly the columns this view reads."""
        used = [self.entity_key] + [
            c for c in self.referenced_columns if c != self.entity_key
        ]
        return table_fingerprint(table.select(used))

    # -- computation ---------------------------------------------------
    def compute_columns(self, table: Table) -> dict[str, np.ndarray]:
        """Every feature over every row, through the executor.

        Returns feature name -> float64 vector of length ``len(table)``,
        in declaration order. Row-locality makes this the *only*
        computation path: the online one-row recompute and the delta
        refresh call this very method on smaller tables and get the
        same bytes per row.
        """
        num_rows = table.num_rows
        if num_rows == 0:
            return {f: np.empty(0, dtype=np.float64) for f in self.feature_names}
        bindings = {
            col: np.ascontiguousarray(
                table.column(col), dtype=np.float64
            ).reshape(-1, 1)
            for col in self.referenced_columns
        }
        out: dict[str, np.ndarray] = {}
        for fname in self.feature_names:
            value = execute(self._plan_for(fname, num_rows), bindings)
            out[fname] = np.asarray(value, dtype=np.float64).reshape(-1)
        return out

    def _plan_for(self, fname: str, num_rows: int):
        """Compiled plan for one feature at one batch size.

        Compilation dominates small-batch evaluation (the executor's
        compile pass costs more than the vector math below a few
        thousand rows), and both the online one-row recompute and the
        delta-refresh fold live entirely in that regime — so plans are
        cached per shape, keyed without re-running the feature builder.
        Compilation is deterministic, so a cached plan yields the same
        bytes as a fresh one.
        """
        return self.plan_cache.lookup(
            (fname, num_rows),
            lambda: compile_expr(self._instantiate(fname, num_rows)),
        )

    def as_matrix(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """:meth:`compute_columns` output as one ``(n, F)`` float64
        matrix, features in declaration order."""
        return np.column_stack([columns[f] for f in self.feature_names])

    def entities_of(self, table: Table) -> np.ndarray:
        """The entity-key column, with uniqueness enforced."""
        entities = table.column(self.entity_key)
        if len(np.unique(entities)) != len(entities):
            raise FeatureStoreError(
                f"view {self.name!r}: entity key {self.entity_key!r} has "
                f"duplicate values"
            )
        return entities

    def __repr__(self) -> str:
        return (
            f"FeatureView({self.name!r}, entity={self.entity_key!r}, "
            f"features={list(self.feature_names)}, "
            f"version={self.version[:12]})"
        )
