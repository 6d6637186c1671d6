"""Typed change streams over versioned dynamic tables.

The storage layer's tables are immutable; this module adds the one
mutable citizen the streaming workload needs. A :class:`DynamicTable`
is a :class:`~repro.storage.table.Table` whose rows can be inserted,
deleted, and updated in place — every mutation writes O(|delta|)
bytes, bumps a monotonic ``version`` and emits a typed :class:`Delta`
to every subscribed :class:`ChangeStream`. Reads see a copy of the
live rows made once per version, so arrays read earlier never change.

A delta carries enough payload to be *invertible*: deletes and updates
include the prior row values, so a downstream aggregate can subtract
exactly what was once added. Each delta is stamped with a CRC32
checksum over its payload; :meth:`Delta.verify` is how the maintainer
detects a corrupted delta and falls back to lineage recompute instead
of folding garbage into a model.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..errors import IncrementalError
from ..storage.table import Table, _as_column_array


def _payload_crc(
    kind: str,
    version: int,
    row_ids: np.ndarray,
    rows: Table | None,
    old_rows: Table | None,
) -> int:
    """CRC32 over everything a delta's consumer will fold."""
    crc = zlib.crc32(f"{kind}:{version}".encode("utf-8"))
    crc = zlib.crc32(row_ids.tobytes(), crc)
    for table in (rows, old_rows):
        if table is None:
            crc = zlib.crc32(b"<none>", crc)
            continue
        for name, arr in table.columns().items():
            crc = zlib.crc32(name.encode("utf-8"), crc)
            if arr.dtype == object:
                crc = zlib.crc32(repr(list(arr)).encode("utf-8"), crc)
            else:
                crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc


@dataclass(frozen=True, eq=False)
class Delta:
    """One typed change to a dynamic table.

    Attributes:
        kind: ``"insert"``, ``"delete"``, or ``"update"``.
        version: the table version *after* this delta applied — versions
            are consecutive, so a consumer that sees a gap knows a delta
            was dropped in transit.
        row_ids: stable row identities (never reused) the delta touches,
            one read-only ``int64`` array in the caller's order.
        rows: new row values (insert/update), aligned with ``row_ids``.
        old_rows: prior row values (delete/update), aligned with
            ``row_ids`` — what an incremental aggregate must subtract.
        checksum: CRC32 over the payload, stamped at emission time.
    """

    kind: str
    version: int
    row_ids: np.ndarray
    rows: Table | None
    old_rows: Table | None
    checksum: int

    def verify(self) -> bool:
        """Does the payload still match the checksum stamped at emit?"""
        return (
            _payload_crc(
                self.kind, self.version, self.row_ids, self.rows, self.old_rows
            )
            == self.checksum
        )

    def corrupted(self) -> "Delta":
        """A copy with one payload value perturbed (checksum kept).

        This is what the ``"corrupt"`` chaos mode hands the maintainer:
        the bytes changed in transit but the stamp did not, so
        :meth:`verify` must catch it.
        """
        source = self.rows if self.rows is not None else self.old_rows
        if source is None or source.num_rows == 0:
            # No payload bytes to flip: corrupt the identity list instead.
            bad_ids = self.row_ids + 1 if self.row_ids.size else np.zeros(1)
            return replace(self, row_ids=bad_ids.astype(np.int64))
        name = source.schema.names[0]
        arr = source.column(name).copy()
        if arr.dtype == object:
            arr[0] = f"{arr[0]}<corrupt>"
        else:
            arr[0] = arr[0] + 1
        bad = source.with_column(name, arr)
        if self.rows is not None:
            return replace(self, rows=bad)
        return replace(self, old_rows=bad)


class ChangeStream:
    """A thread-safe FIFO of deltas published by one dynamic table."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._deltas: deque[Delta] = deque()
        self.published = 0

    def publish(self, delta: Delta) -> None:
        with self._lock:
            self._deltas.append(delta)
            self.published += 1

    def poll(self) -> Delta | None:
        """Pop the oldest pending delta (None when drained)."""
        with self._lock:
            return self._deltas.popleft() if self._deltas else None

    def drop_next(self) -> Delta | None:
        """Discard the oldest pending delta (simulates a lost message)."""
        return self.poll()

    def pending(self) -> int:
        with self._lock:
            return len(self._deltas)


class DynamicTable(Table):
    """A versioned, mutable table that publishes typed deltas.

    Rows live in slot buffers — one per column, one of row ids, a live
    mask — with spare capacity: an insert fills spare slots, a delete
    clears live bits, an update overwrites its rows' slots, so a
    mutation touches O(|delta|) bytes. An insert that does not fit
    compacts the live rows, then grows every buffer by
    ``max(k, live // 8)`` if they still do not fit. Every read
    (``columns``, ``row_ids``, ``snapshot``, the inherited
    :class:`Table` methods) sees one copy of the live rows made once
    per :attr:`version`. A buffer is never handed out, so arrays read
    earlier keep their bytes. Row ids are never reused, so the written
    ids ascend and an id resolves to its slot by binary search.
    """

    def __init__(self, schema, columns, name: str = "dynamic"):
        n = Table(schema, columns).num_rows  # the base shape checks
        self._schema, self._nrows = schema, n
        self.name = name
        self.version = 0
        # copies in the schema's dtype: an insert can never narrow a column
        self._buffers = [
            np.array(col, dtype=c.ctype.numpy_dtype)
            for c, col in zip(schema, columns)
        ]
        self._ids = np.arange(n, dtype=np.int64)
        self._live = np.ones(n, dtype=bool)
        self._used = self._next_row_id = n
        self._read = None  # the live rows' copy at this version
        self._streams: list[ChangeStream] = []

    @classmethod
    def from_table(cls, table: Table, name: str = "dynamic") -> "DynamicTable":
        return cls(table.schema, list(table.columns().values()), name=name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def _columns(self) -> list[np.ndarray]:
        return self._materialised()[0]

    @property
    def row_ids(self) -> np.ndarray:
        """Stable identities of the current rows, ascending."""
        return self._materialised()[1]

    def snapshot(self) -> Table:
        """An immutable table of the current state."""
        return Table(self._schema, self._columns)

    def subscribe(self) -> ChangeStream:
        """A new stream that receives every future delta."""
        stream = ChangeStream()
        self._streams.append(stream)
        return stream

    def _materialised(self) -> tuple[list[np.ndarray], np.ndarray]:
        if self._read is None:
            keep = np.flatnonzero(self._live[: self._used])
            self._read = [buf[keep] for buf in self._buffers], self._ids[keep]
        return self._read

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, rows: Table | Mapping[str, Sequence[Any]]) -> Delta:
        """Append rows; returns the published insert delta."""
        new = self._coerce_rows(rows)
        k = new.num_rows
        if k == 0:
            raise IncrementalError("insert requires at least one row")
        self._make_room(k)
        ids = self._next_row_id + np.arange(k, dtype=np.int64)
        slots = slice(self._used, self._used + k)
        incoming = new.columns()
        for c, buf in zip(self._schema, self._buffers):
            buf[slots] = incoming[c.name]
        self._ids[slots] = ids
        self._live[slots] = True
        self._used += k
        self._next_row_id += k
        self._nrows += k
        return self._emit("insert", ids, rows=new, old_rows=None)

    def delete(self, row_ids: Iterable[int]) -> Delta:
        """Remove rows by identity; returns the published delete delta."""
        ids = self._ids_of(row_ids)
        if ids.size == 0:
            raise IncrementalError("delete requires at least one row id")
        slots = self._positions(ids)
        old = Table(self._schema, [buf[slots] for buf in self._buffers])
        self._live[slots] = False
        self._nrows -= ids.size
        return self._emit("delete", ids, rows=None, old_rows=old)

    def update(
        self, row_ids: Iterable[int], rows: Table | Mapping[str, Sequence[Any]]
    ) -> Delta:
        """Replace rows by identity; returns the published update delta."""
        ids = self._ids_of(row_ids)
        new = self._coerce_rows(rows)
        if new.num_rows != ids.size or ids.size == 0:
            raise IncrementalError(
                f"update needs one row per id: {new.num_rows} rows "
                f"for {ids.size} ids"
            )
        slots = self._positions(ids)
        old = Table(self._schema, [buf[slots] for buf in self._buffers])
        incoming = new.columns()
        for c, buf in zip(self._schema, self._buffers):
            buf[slots] = incoming[c.name]
        return self._emit("update", ids, rows=new, old_rows=old)

    def _make_room(self, k: int) -> None:
        """Free or add slots for ``k`` rows (the class docstring's rule)."""
        capacity = len(self._ids)
        if self._used + k <= capacity:
            return
        keep = np.flatnonzero(self._live[: self._used])
        live = keep.size
        if live + k > capacity:
            capacity += max(k, live // 8)
        moved = []
        for buf in [*self._buffers, self._ids]:
            out = np.empty(capacity, buf.dtype) if buf.size < capacity else buf
            out[:live] = buf[keep]
            moved.append(out)
        *self._buffers, self._ids = moved
        self._live = np.arange(capacity) < live
        self._used = live

    # ------------------------------------------------------------------
    def _ids_of(self, row_ids: Iterable[int]) -> np.ndarray:
        ids = np.asarray(list(row_ids))
        if ids.size and (ids.ndim != 1 or ids.dtype.kind not in "iu"):
            raise IncrementalError(
                f"row ids of table {self.name!r} must be integers, got "
                f"{ids.ravel()[:3].tolist()!r}"
            )
        return ids.astype(np.int64, copy=False)

    def _coerce_rows(self, rows: Table | Mapping[str, Sequence[Any]]) -> Table:
        if not isinstance(rows, Table):
            names = [c.name for c in self._schema]
            if set(rows) != set(names):
                raise IncrementalError(
                    f"rows for table {self.name!r} name columns "
                    f"{list(rows)}, the table has {names}"
                )
            columns = [_as_column_array(rows[name]) for name in names]
            for name, col, buf in zip(names, columns, self._buffers):
                if not np.can_cast(col.dtype, buf.dtype, "same_kind"):
                    raise IncrementalError(
                        f"column {name!r} of table {self.name!r} stores "
                        f"{buf.dtype}, got {col.dtype} values"
                    )
            rows = Table(self._schema, columns)
        if rows.schema != self._schema:
            raise IncrementalError(
                f"delta schema {rows.schema!r} != table schema {self._schema!r}"
            )
        return rows

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """Live slots of ``ids`` (caller order) in O(|ids| log n), searched
        in ascending order: the one sort also finds a repeated id."""
        order = np.argsort(ids)
        ordered = ids[order]
        slots = np.empty_like(ids)
        slots[order] = np.searchsorted(self._ids[: self._used], ordered)
        present = slots < self._used
        hit = slots[present]
        present[present] = (self._ids[hit] == ids[present]) & self._live[hit]
        if not present.all():
            raise IncrementalError(
                f"row id {int(ids[~present][0])} not present in table "
                f"{self.name!r}"
            )
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise IncrementalError(
                f"row id {int(repeated[0])} repeated in one "
                f"mutation of table {self.name!r}"
            )
        return slots

    def _emit(
        self,
        kind: str,
        ids: np.ndarray,
        rows: Table | None,
        old_rows: Table | None,
    ) -> Delta:
        self.version += 1
        self._read = None
        ids.flags.writeable = False
        delta = Delta(
            kind, self.version, ids, rows, old_rows,
            checksum=_payload_crc(kind, self.version, ids, rows, old_rows),
        )
        for stream in self._streams:
            stream.publish(delta)
        return delta
