"""Offline materialization and incremental refresh of feature views.

The offline path computes a :class:`~repro.features.view.FeatureView`
batch-wise through the executor and parks the resulting matrix in the
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


class _Slots:
    """Entity -> slot. Integer keys are direct-addressed: ``where[e -
    base]`` is ``e``'s slot, ``-1`` where it has none (the first and
    last entries always, so a key outside the range clips to one); a
    batch moves as one gather or scatter, and a range that grows is
    re-laid from its smallest live key, so dead low keys leave it. Other keys, and
    integer keys once the range would be 16x sparser than the rows
    (8 bytes a key against ~104 a dict row), live in the dict ``keys``."""

    def __init__(self, integer: bool) -> None:
        self.where, self.base = np.full(1, -1) if integer else None, 0
        self.keys: dict = {}

    def get(self, entity) -> int:
        """One entity's slot, ``-1`` where it has none."""
        if self.where is None:
            try:
                return self.keys.get(entity, -1)
            except TypeError:  # an unhashable key names no entity
                return -1
        try:  # 3.0 finds entity 3, as a dict key does; "3" does not
            at = int(entity) - self.base
        except (TypeError, ValueError, OverflowError):
            return -1
        held = at + self.base == entity and 0 <= at < len(self.where)
        return self.where.item(at) if held else -1

    def lookup(self, entities) -> np.ndarray:
        """Each entity's slot, ``-1`` where it has none. A key list that
        is not one integer array (ragged ones included) goes key by key."""
        try:
            keys = np.asarray(entities) if self.where is not None else None
        except ValueError:
            keys = None
        if keys is None or keys.dtype.kind != "i" or keys.ndim != 1:
            return np.fromiter(map(self.get, entities), np.int64, len(entities))
        return self.where.take(keys - self.base, mode="clip")

    def bind(self, entities: np.ndarray, slots: np.ndarray, rows: int) -> None:
        """Give ``entities`` their ``slots``; ``rows`` live rows after."""
        if self.where is not None and len(entities):
            self._fit(int(entities.min()), int(entities.max()), rows)
        if self.where is None:
            self.keys.update(zip(entities.tolist(), slots.tolist()))
        else:
            self.where[entities - self.base] = slots

    def _fit(self, low: int, top: int, rows: int) -> None:
        """Make ``where`` reach ``low`` .. ``top``, or move to the dict."""
        end = self.base + len(self.where) - 1  # the last sentinel's key
        if self.base < low and top < end:
            return
        live = np.flatnonzero(self.where >= 0)
        first, last = live[[0, -1]] + self.base if len(live) else (low, low - 1)
        low, top = min(low, first), max(top, last)
        if top - low < 16 * rows + 2**16:
            grown = np.full((top - low + 3) * 3 // 2, -1)
            grown[first - low + 1 : last - low + 2] = self.where[
                first - self.base : last - self.base + 1
            ]
            self.where, self.base = grown, int(low) - 1
            return
        keys = (live + self.base).tolist()
        self.keys, self.where = dict(zip(keys, self.where[live].tolist())), None

    def unbind(self, entities: np.ndarray) -> None:
        if self.where is not None:
            self.where[entities - self.base] = -1
            return
        for entity in entities.tolist():
            del self.keys[entity]


class FeatureRows:
    """Entity -> feature row of one view: an entity -> slot map over one
    ``(capacity, F)`` float64 matrix, freed slots reused. Integer keys
    are direct-addressed in an array, any other key lives in a dict
    (:class:`_Slots`); either way a batch's slots move in bulk.

    A :class:`MaterializedFeatures` fills it once; a
    :class:`FeatureViewMaintainer` keeps it fresh as its delta-maintained
    state (``rebuild`` / ``fold_batch`` / ``same_bytes``, see
    :class:`~repro.incremental.DeltaConsumer`). Every accessor hands
    back copies, so callers can never mutate the stored bytes.
    """

    def __init__(self, view: FeatureView):
        self.view = view
        self._slots = _Slots(integer=False)
        self._free: list[int] = []  # a stack: its top goes first
        self._data = np.empty((0, len(view.feature_names)))
        self._mark = np.zeros(0, bool)  # all False between folds

    def __len__(self) -> int:
        return self.capacity - len(self._free)

    @property
    def capacity(self) -> int:
        """Slots allocated (live + free)."""
        return len(self._data)

    # -- storage ---------------------------------------------------------
    def load(self, entities: np.ndarray, rows: np.ndarray) -> None:
        """Replace the contents: ``rows[i]`` is ``entities[i]``'s row."""
        self._slots = _Slots(integer=entities.dtype.kind == "i")
        self._slots.bind(entities, np.arange(len(entities)), len(entities))
        self._free = []
        self._data = rows

    def missing(self, entity) -> FeatureStoreError:
        """The error an entity without a row raises."""
        return FeatureStoreError(
            f"entity {entity!r} has no row in view {self.view.name!r}"
        )

    def slot(self, entity) -> int:
        """Where an entity's row is stored, for :meth:`take`; an entity
        without a row raises :class:`FeatureStoreError`."""
        slot = self._slots.get(entity)
        if slot < 0:
            raise self.missing(entity)
        return slot

    def row(self, entity) -> np.ndarray:
        """One entity's features, in declaration order (a copy)."""
        return self._data[self.slot(entity)].copy()

    def take(self, slots) -> np.ndarray:
        """The rows at ``slots``, in that order, as one fresh
        ``(len(slots), F)`` array — a single ``ndarray.take`` gather."""
        return self._data.take(slots, axis=0)

    def slots(self, entities) -> list[int] | np.ndarray:
        """The entities' slots, in order, up to the first entity without
        a row, from one lookup (one entity skips the array round trip)."""
        if len(entities) == 1:
            slot = self._slots.get(entities[0])
            return [slot] if slot >= 0 else []
        slots = self._slots.lookup(entities)
        absent = slots < 0
        return slots[: absent.argmax()] if absent.any() else slots

    def slice(self, entities) -> np.ndarray:
        """A (len(entities), F) matrix in the requested entity order; an
        entity without a row raises, naming the first one."""
        slots = self.slots(entities)
        if len(slots) < len(entities):
            raise self.missing(entities[len(slots)])
        return self.take(slots)

    def matrix(self) -> np.ndarray:
        """All rows, in slot order (at first, a load's order; a copy)."""
        return np.delete(self._data, self._free, axis=0)

    # -- delta-maintained state ------------------------------------------
    def _computed(self, table: Table) -> tuple[np.ndarray, np.ndarray]:
        return self.view.entities_of(table), self.view.compute_columns(table)

    def rebuild(self, table: Table) -> "FeatureRows":
        """Full recompute from a base table (the lineage path)."""
        self.load(*self._computed(table))
        return self

    def fold_batch(self, deltas):
        """Apply ``deltas`` in order, each checked whole before its slots
        move (see :meth:`_move`), yielding its row ids (keyed: an id counts
        once) once it is in. Every new row is computed in one call (rows
        are row-local: the bytes of one call per delta). Rows held
        read-only (a materialization's cached matrix) refuse a fold."""
        if not self._data.flags.writeable:
            raise FeatureStoreError(
                f"view {self.view.name!r}: these rows are a read-only "
                "materialization; fold deltas through a FeatureViewMaintainer"
            )
        computed = None
        for i, delta in enumerate(deltas):
            came, rows = np.empty(0, np.int64), self._data[:0]
            if delta.rows is not None:
                came = self.view.entities_of(delta.rows)
                if computed is None:
                    new = [d.rows for d in deltas[i:] if d.rows is not None]
                    columns = zip(*(t.columns().values() for t in new))
                    computed = self.view.compute_columns(Table(
                        new[0].schema, [np.concatenate(c) for c in columns]
                    ))
                rows, computed = computed[: len(came)], computed[len(came) :]
            self._move(delta.old_rows, came, rows)
            yield len(delta.row_ids)

    def _move(self, old: Table | None, came: np.ndarray, rows) -> None:
        gone = came[:0] if old is None else self.view.entities_of(old)
        was, now = self._slots.lookup(gone), self._slots.lookup(came)
        if (was < 0).any():
            raise self.missing(gone[was < 0].tolist()[0])
        kept = now >= 0
        if len(self._mark) < self.capacity:
            self._mark = np.zeros(self.capacity, bool)
        self._mark[now[kept]] = True  # a kept entity's slot
        leaving = ~self._mark[was]
        self._mark[now[kept]] = False
        if kept.sum() > len(was) - leaving.sum():  # a kept key not in gone
            dup = came[kept][~np.isin(now[kept], was)].tolist()[0]
            raise FeatureStoreError(
                f"duplicate entity {dup!r} in view {self.view.name!r}"
            )
        self._slots.unbind(gone[leaving])
        self._free.extend(was[leaving].tolist())
        fresh = came[~kept]
        short = len(fresh) - len(self._free)
        if short > 0:
            start = self.capacity
            grown = start + max(short, start // 8)
            self._data = np.concatenate(
                [self._data, np.empty((grown - start, self._data.shape[1]))]
            )
            self._free.extend(range(grown - 1, start - 1, -1))
        cut = len(self._free) - len(fresh)
        slots = np.array(self._free[cut:][::-1], np.int64)
        del self._free[cut:]
        now[~kept] = slots  # a kept entity's row goes back where it was
        self._data[now] = rows
        self._slots.bind(fresh, slots, len(self))

    def same_bytes(self, table: Table) -> bool:
        entities, fresh = self._computed(table)
        slots = self._slots.lookup(entities)
        return (
            len(entities) == len(self) and not (slots < 0).any()
            and self.take(slots).tobytes() == fresh.tobytes()
        )


class MaterializedFeatures:
    """One materialized (view, table) result: entities + feature matrix.

    Its rows are the store's cached ``(n, F)`` matrix itself, made
    read-only, and :attr:`columns` maps each feature name to a column
    view of it; rows are addressed by entity value, and every accessor
    but ``columns`` hands back copies.
    """

    def __init__(
        self,
        view: FeatureView,
        key: str,
        entities: np.ndarray,
        matrix: np.ndarray,
        from_cache: bool,
    ):
        self.view = view
        self.key = key
        self.entities = entities
        self.from_cache = from_cache
        matrix.flags.writeable = False
        self.columns = dict(zip(view.feature_names, matrix.T))
        self.rows = FeatureRows(view)
        self.rows.load(entities, matrix)

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
                "matrix": view.compute_columns(table),
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
                    payload["matrix"].nbytes
                    + getattr(payload["entities"], "nbytes", 0)
                ),
            )
            self.counts.inc("materializations")
        return MaterializedFeatures(
            view, fp.key, payload["entities"], payload["matrix"], from_cache
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
        self.rows = self.state = FeatureRows(view)
        self.subject = f"view {view.name!r}"
        self._rebuild()

    #: the name the E27 / E28 oracles call the shared check by
    parity_check = DeltaConsumer.parity
