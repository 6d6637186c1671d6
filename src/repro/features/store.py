"""Offline materialization and incremental refresh of feature views.

The offline path computes a :class:`~repro.features.view.FeatureView`
batch-wise through the executor and parks the resulting columns in the
:class:`~repro.materialize.MaterializationStore` under the view's
data-crossed fingerprint, whose one operand is the base-table bytes.
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
staleness. Both paths keep their rows in one :class:`FeatureRows`.
"""

from __future__ import annotations

import numpy as np

from ..errors import FeatureStoreError
from ..incremental.maintainer import DeltaConsumer
from ..incremental.stream import ChangeStream, DynamicTable
from ..materialize.store import MaterializationStore
from ..obs import Counted, Ledger
from ..storage.table import Table
from .view import FeatureView


class FeatureRows:
    """Entity -> feature row of one view: an entity -> slot dict over one
    ``(capacity, F)`` float64 matrix, freed slots reused. ``put``,
    ``drop`` and ``fold`` move a batch's slots in bulk dict, set and list
    operations (no per-entity Python); a refused batch moves none.

    A :class:`MaterializedFeatures` fills it once; a
    :class:`FeatureViewMaintainer` keeps it fresh as its delta-maintained
    state (``rebuild`` / ``fold`` / ``same_bytes``, see
    :class:`~repro.incremental.DeltaConsumer`). Every accessor hands
    back copies, so callers can never mutate the stored bytes.
    """

    def __init__(self, view: FeatureView):
        self.view = view
        self._slots: dict = {}
        self._free: list[int] = []
        self._data = np.empty((0, len(view.feature_names)))
        # row ids the last -1 batch released (see fold)
        self._released: frozenset = frozenset()

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def capacity(self) -> int:
        """Slots allocated (live + free)."""
        return len(self._data)

    # -- storage ---------------------------------------------------------
    def load(self, entities: list, rows: np.ndarray) -> None:
        """Replace the contents: ``rows[i]`` is ``entities[i]``'s row."""
        self._data = rows
        self._slots = dict(zip(entities, range(len(entities))))
        self._free = []

    def put(self, entities: list, rows: np.ndarray) -> None:
        """Store one row per new entity, in freed slots first."""
        self._check_batch(entities, stored=False)
        short = len(entities) - len(self._free)
        if short > 0:
            start = self.capacity
            grown = start + max(short, start // 8)
            self._data = np.concatenate(
                [self._data, np.empty((grown - start, self._data.shape[1]))]
            )
            self._free.extend(range(grown - 1, start - 1, -1))
        cut = len(self._free) - len(entities)
        slots = self._free[cut:][::-1]  # a stack: its top slot goes first
        del self._free[cut:]
        self._data[slots] = rows
        self._slots.update(zip(entities, slots))

    def drop(self, entities: list) -> None:
        """Release the entities' slots for reuse."""
        self._check_batch(entities, stored=True)
        self._free.extend(map(self._slots.pop, entities))

    def _check_batch(self, entities: list, stored: bool) -> None:
        """Raise, before any slot moves, on a batch naming an entity
        twice or naming one whose row's presence is not ``stored``."""
        unique, keys = set(entities), self._slots.keys()
        if len(unique) == len(entities) and (
            keys >= unique if stored else keys.isdisjoint(unique)
        ):
            return
        seen = set()
        for entity in entities:
            if entity in seen or (entity in keys) != stored:
                raise self._missing(entity) if stored else FeatureStoreError(
                    f"duplicate entity {entity!r} in view {self.view.name!r}"
                )
            seen.add(entity)

    def _missing(self, entity) -> FeatureStoreError:
        return FeatureStoreError(
            f"entity {entity!r} has no row in view {self.view.name!r}"
        )

    def slot(self, entity) -> int:
        """Where an entity's row is stored, for :meth:`take`; an entity
        without a row raises :class:`FeatureStoreError`."""
        try:
            return self._slots[entity]
        except KeyError:
            raise self._missing(entity) from None

    def row(self, entity) -> np.ndarray:
        """One entity's features, in declaration order (a copy)."""
        return self._data[self.slot(entity)].copy()

    def take(self, slots: list[int]) -> np.ndarray:
        """The rows at ``slots``, in that order, as one fresh
        ``(len(slots), F)`` array — a single ``ndarray.take`` gather."""
        return self._data.take(slots, axis=0)

    def slice(self, entities) -> np.ndarray:
        """A (len(entities), F) matrix in the requested entity order."""
        try:
            return self.take([self._slots[e] for e in entities])
        except KeyError as exc:
            raise self._missing(exc.args[0]) from None

    def matrix(self) -> np.ndarray:
        """All rows, in the order their entities were stored (a copy)."""
        return self._data[list(self._slots.values())]

    # -- delta-maintained state ------------------------------------------
    def _computed(self, table: Table) -> tuple[list, np.ndarray]:
        return (
            self.view.entities_of(table).tolist(),
            self.view.as_matrix(self.view.compute_columns(table)),
        )

    def rebuild(self, table: Table) -> "FeatureRows":
        """Full recompute from a base table (the lineage path)."""
        self.load(*self._computed(table))
        return self

    def fold(self, row_ids, rows: Table, sign: int) -> int:
        """Release (``-1``) the batch's entities, or store (``+1``)
        their recomputed rows. The state is keyed, so a delta counts
        each key once: the ``+1`` half of an update rewrites the keys
        its ``-1`` half just released and counts none of them."""
        if sign < 0:
            self.drop(self.view.entities_of(rows).tolist())
            self._released = frozenset(row_ids)
            return len(row_ids)
        self.put(*self._computed(rows))
        released, self._released = self._released, frozenset()
        return len(row_ids) - len(released.intersection(row_ids))

    def same_bytes(self, table: Table) -> bool:
        entities, fresh = self._computed(table)
        return (
            set(entities) == self._slots.keys()
            and self.slice(entities).tobytes() == fresh.tobytes()
        )


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
        self.rows = FeatureRows(view)
        self.rows.load(entities.tolist(), view.as_matrix(columns))

    def row(self, entity) -> np.ndarray:
        """One entity's features, in declaration order (a copy)."""
        return self.rows.row(entity)

    def slice(self, entities) -> np.ndarray:
        """A (len(entities), F) matrix in the requested entity order."""
        return self.rows.slice(entities)

    def matrix(self) -> np.ndarray:
        """All rows, storage order (a copy)."""
        return self.rows.matrix()


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
        from_cache = payload is not None
        if from_cache:
            self.counts.inc("hits")
        else:
            payload = {
                "entities": view.entities_of(table),
                "columns": view.compute_columns(table),
            }
            self.store.put(
                fp,
                payload,
                label=f"features:{view.name}",
                # Rough executor cost: one elementwise pass per feature
                # per row — enough for eviction ordering; admission is
                # floor-free here.
                flops=float(table.num_rows * len(view.feature_names)),
                nbytes=int(
                    sum(c.nbytes for c in payload["columns"].values())
                    + getattr(payload["entities"], "nbytes", 0)
                ),
            )
            self.counts.inc("materializations")
        return MaterializedFeatures(
            view, fp.key, payload["entities"], payload["columns"], from_cache
        )


class FeatureViewMaintainer(DeltaConsumer):
    """Keeps a view's feature rows fresh against a dynamic base table.

    Inherits the full delta discipline (staleness, version gaps, chaos
    at the fault site, checksum verification, lineage recompute, the
    parity check) from :class:`DeltaConsumer`; its one state,
    :attr:`rows`, recomputes features for exactly the delta's rows, so
    refresh cost is O(|delta|) and — by row-locality — the refreshed
    bytes are identical to a full recompute.
    """

    FAULT_SITE = "features.refresh"
    OBS_PREFIX = "features.refresh"
    ERROR = FeatureStoreError

    def __init__(
        self, view: FeatureView, table: DynamicTable, stream: ChangeStream
    ):
        super().__init__(table, stream)
        self.view = view
        self.rows = FeatureRows(view)
        self.states = [self.rows]
        self._rebuild()

    def row(self, entity) -> np.ndarray:
        """One maintained entity's features (the online server's source)."""
        return self.rows.row(entity)

    #: the name the E27 / E28 oracles call the shared check by
    parity_check = DeltaConsumer.parity
