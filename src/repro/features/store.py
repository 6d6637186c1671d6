"""Offline materialization and incremental refresh of feature views.

The offline path computes a :class:`~repro.features.view.FeatureView`
batch-wise through the executor and parks the resulting columns in the
:class:`~repro.materialize.MaterializationStore` under the view's
data-crossed fingerprint, with lineage back to the base-table bytes.
A second materialization of the same definition over the same data is
a store hit — the *same bytes*, not a recomputation — which is what
makes train-time features reproducible artifacts rather than ephemeral
dataframes.

The refresh path (:class:`FeatureViewMaintainer`) subscribes a view to
a :class:`~repro.incremental.DynamicTable` change stream through the
:class:`~repro.incremental.DeltaConsumer` discipline: each delta folds
in O(|delta|) by recomputing features for exactly the touched rows
(row-locality makes the folded bytes identical to a full recompute),
and chaos or version gaps repair by lineage recompute, never silent
staleness.
"""

from __future__ import annotations

import numpy as np

from ..errors import FeatureStoreError
from ..incremental.maintainer import DeltaConsumer
from ..incremental.stream import ChangeStream, Delta, DynamicTable
from ..materialize.store import MaterializationStore
from ..obs import Counted, Ledger
from ..resilience import no_chaos
from ..storage.table import Table
from .view import FeatureView


class MaterializedFeatures:
    """One materialized (view, table) result: entities + feature columns.

    Rows are addressed by entity value; every accessor hands back
    copies, so callers can never mutate the materialized bytes.
    """

    def __init__(
        self,
        view: FeatureView,
        key: str,
        entities: np.ndarray,
        columns: dict[str, np.ndarray],
        from_cache: bool,
    ):
        self.view = view
        self.key = key
        self.entities = entities
        self.columns = columns
        self.from_cache = from_cache
        self._positions = {e: i for i, e in enumerate(entities.tolist())}
        # Feature-major matrix assembled once; row() slices out of it.
        self._matrix = np.column_stack(
            [columns[f] for f in view.feature_names]
        ) if len(entities) else np.empty(
            (0, len(view.feature_names)), dtype=np.float64
        )

    @property
    def num_rows(self) -> int:
        return len(self.entities)

    def position(self, entity) -> int:
        pos = self._positions.get(entity)
        if pos is None:
            raise FeatureStoreError(
                f"entity {entity!r} not materialized in view "
                f"{self.view.name!r}"
            )
        return pos

    def row(self, entity) -> np.ndarray:
        """One entity's features, in declaration order (a copy)."""
        return np.array(self._matrix[self.position(entity)], copy=True)

    def slice(self, entities) -> np.ndarray:
        """A (len(entities), F) matrix in the requested entity order."""
        idx = [self.position(e) for e in entities]
        return np.array(self._matrix[idx], copy=True)

    def matrix(self) -> np.ndarray:
        """All rows, storage order (a copy)."""
        return np.array(self._matrix, copy=True)


class FeatureStore(Counted):
    """Versioned offline feature materialization over a shared store.

    A directory-less :class:`MaterializationStore` (with the flops
    admission floor lowered to zero — feature tables are cheap per byte
    but expensive to get wrong) is created when none is shared in.
    """

    def __init__(self, store: MaterializationStore | None = None):
        self.store = store if store is not None else MaterializationStore(
            min_flops=0.0
        )
        self.counts = Ledger("features.offline", ("materializations", "hits"))

    def materialize(
        self, view: FeatureView, table: Table
    ) -> MaterializedFeatures:
        """Compute (or re-serve) a view over a table's current bytes."""
        fp = view.fingerprint(table)
        payload = self.store.lookup(fp)
        if payload is not None:
            self.counts.inc("hits")
            return MaterializedFeatures(
                view, fp.key, payload["entities"], payload["columns"],
                from_cache=True,
            )
        entities = view.entities_of(table)
        columns = view.compute_columns(table)
        nbytes = int(
            sum(c.nbytes for c in columns.values())
            + getattr(entities, "nbytes", 0)
        )
        # Rough executor cost: one elementwise pass per feature per row —
        # enough for eviction ordering; admission is floor-free here.
        flops = float(table.num_rows * len(view.feature_names))
        self.store.put(
            fp,
            {"entities": entities, "columns": columns},
            label=f"features:{view.name}",
            flops=flops,
            structural=view.version,
            children=(fp.operands[0],),
            source="features",
            nbytes=nbytes,
        )
        self.counts.inc("materializations")
        return MaterializedFeatures(
            view, fp.key, entities, columns, from_cache=False
        )

    def ledger(self) -> dict:
        return self.counts.as_dict()


class FeatureViewMaintainer(DeltaConsumer):
    """Keeps a view's feature rows fresh against a dynamic base table.

    Inherits the full delta discipline (staleness, version gaps, chaos
    at the fault site, checksum verification, lineage recompute) from
    :class:`DeltaConsumer`; folding recomputes features for exactly the
    delta's rows, so refresh cost is O(|delta|) and — by row-locality —
    the refreshed bytes are identical to a full recompute.
    """

    FAULT_SITE = "features.refresh"
    OBS_PREFIX = "features.refresh"

    def __init__(
        self, view: FeatureView, table: DynamicTable, stream: ChangeStream
    ):
        super().__init__(table, stream)
        self.view = view
        self._rebuild()

    # -- delta discipline ----------------------------------------------
    def _fold(self, delta: Delta) -> int:
        folded = 0
        if delta.kind in ("delete", "update"):
            for entity in self.view.entities_of(delta.old_rows).tolist():
                pos = self._positions.pop(entity, None)
                if pos is None:
                    raise FeatureStoreError(
                        f"delta {delta.version} removes unknown entity "
                        f"{entity!r}"
                    )
                self._rows[pos] = None
        if delta.kind in ("insert", "update"):
            entities = self.view.entities_of(delta.rows)
            columns = self.view.compute_columns(delta.rows)
            batch = np.column_stack(
                [columns[f] for f in self.view.feature_names]
            )
            for i, entity in enumerate(entities.tolist()):
                if entity in self._positions:
                    raise FeatureStoreError(
                        f"delta {delta.version} inserts duplicate entity "
                        f"{entity!r}"
                    )
                self._positions[entity] = len(self._rows)
                self._rows.append(np.array(batch[i], copy=True))
            folded += len(entities)
        if delta.kind == "delete":
            folded += delta.num_rows
        return folded

    def _rebuild(self) -> None:
        entities = self.view.entities_of(self.table)
        columns = self.view.compute_columns(self.table)
        batch = np.column_stack(
            [columns[f] for f in self.view.feature_names]
        ) if len(entities) else np.empty(
            (0, len(self.view.feature_names)), dtype=np.float64
        )
        self._rows: list[np.ndarray | None] = [
            np.array(batch[i], copy=True) for i in range(len(entities))
        ]
        self._positions: dict = {
            e: i for i, e in enumerate(entities.tolist())
        }

    # -- row access (the online server's source) ------------------------
    @property
    def num_rows(self) -> int:
        return len(self._positions)

    def entity_values(self) -> list:
        return list(self._positions)

    def row(self, entity) -> np.ndarray:
        pos = self._positions.get(entity)
        if pos is None:
            raise FeatureStoreError(
                f"entity {entity!r} not maintained in view "
                f"{self.view.name!r}"
            )
        return np.array(self._rows[pos], copy=True)

    def parity_check(self) -> bool:
        """Assert every maintained row is bitwise equal to a fresh
        recompute of the current base table (chaos held off)."""
        self.stats.inc("parity_checks")
        if self.staleness != 0:
            raise FeatureStoreError(
                f"parity check with {self.staleness} unapplied "
                f"version(s); drain the stream first"
            )
        with no_chaos():
            entities = self.view.entities_of(self.table)
            columns = self.view.compute_columns(self.table)
        fresh = np.column_stack(
            [columns[f] for f in self.view.feature_names]
        ) if len(entities) else np.empty((0, len(self.view.feature_names)))
        if len(entities) != self.num_rows:
            raise FeatureStoreError(
                f"maintained view holds {self.num_rows} entities; base "
                f"table has {len(entities)}"
            )
        for i, entity in enumerate(entities.tolist()):
            maintained = self.row(entity)
            if maintained.tobytes() != np.ascontiguousarray(
                fresh[i], dtype=np.float64
            ).tobytes():
                raise FeatureStoreError(
                    f"maintained features for entity {entity!r} diverged "
                    f"from recompute"
                )
        return True
