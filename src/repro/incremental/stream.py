"""Typed change streams over versioned dynamic tables.

The storage layer's tables are immutable; this module adds the one
mutable citizen the streaming workload needs. A :class:`DynamicTable`
is a :class:`~repro.storage.table.Table` whose rows can be inserted,
deleted, and updated — every mutation bumps a monotonic ``version``,
rebuilds the column arrays (copy-on-write: the previous arrays are
never touched, so fingerprints memoized on them stay valid), and emits
a typed :class:`Delta` to every subscribed :class:`ChangeStream`.

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
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..errors import IncrementalError
from ..storage.table import Table, _as_column_array


def _payload_crc(
    kind: str,
    version: int,
    row_ids: tuple[int, ...],
    rows: Table | None,
    old_rows: Table | None,
) -> int:
    """CRC32 over everything a delta's consumer will fold."""
    crc = zlib.crc32(f"{kind}:{version}".encode("utf-8"))
    crc = zlib.crc32(np.asarray(row_ids, dtype=np.int64).tobytes(), crc)
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


@dataclass(frozen=True)
class Delta:
    """One typed change to a dynamic table.

    Attributes:
        kind: ``"insert"``, ``"delete"``, or ``"update"``.
        version: the table version *after* this delta applied — versions
            are consecutive, so a consumer that sees a gap knows a delta
            was dropped in transit.
        row_ids: stable row identities (never reused) the delta touches.
        rows: new row values (insert/update), aligned with ``row_ids``.
        old_rows: prior row values (delete/update), aligned with
            ``row_ids`` — what an incremental aggregate must subtract.
        checksum: CRC32 over the payload, stamped at emission time.
    """

    kind: str
    version: int
    row_ids: tuple[int, ...]
    rows: Table | None
    old_rows: Table | None
    checksum: int

    @property
    def num_rows(self) -> int:
        return len(self.row_ids)

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
            bad_ids = tuple(i + 1 for i in self.row_ids) or (0,)
            return replace(self, row_ids=bad_ids)
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
        self._deltas: list[Delta] = []
        self.published = 0

    def publish(self, delta: Delta) -> None:
        with self._lock:
            self._deltas.append(delta)
            self.published += 1

    def poll(self) -> Delta | None:
        """Pop the oldest pending delta (None when drained)."""
        with self._lock:
            return self._deltas.pop(0) if self._deltas else None

    def drop_next(self) -> Delta | None:
        """Discard the oldest pending delta (simulates a lost message)."""
        return self.poll()

    def pending(self) -> int:
        with self._lock:
            return len(self._deltas)


class DynamicTable(Table):
    """A versioned, mutable table that publishes typed deltas.

    Mutations are copy-on-write: each one rebuilds the backing column
    arrays and bumps :attr:`version`, so any array or :class:`Table`
    handed out earlier (snapshots, fingerprinted operands, cached query
    results) keeps the bytes it was created with. Rows carry stable
    ``row_id`` identities that are never reused, which is what lets a
    delta consumer subtract exactly the rows a delete removed.

    Invariant: ``row_ids`` is strictly ascending — ``arange`` at build,
    inserts append larger ids, deletes mask in order, updates keep
    positions — so an id resolves to its position by binary search.
    """

    def __init__(self, schema, columns, name: str = "dynamic"):
        super().__init__(schema, columns)
        self.name = name
        self.version = 0
        self._row_ids = np.arange(self._nrows, dtype=np.int64)
        self._next_row_id = self._nrows
        self._streams: list[ChangeStream] = []

    @classmethod
    def from_table(cls, table: Table, name: str = "dynamic") -> "DynamicTable":
        return cls(
            table.schema,
            [arr.copy() for arr in table.columns().values()],
            name=name,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def row_ids(self) -> np.ndarray:
        """Stable identities of the current rows (read-only view)."""
        return self._row_ids

    def snapshot(self) -> Table:
        """An immutable copy of the current state (fresh arrays)."""
        return Table(self._schema, [arr.copy() for arr in self._columns])

    def subscribe(self) -> ChangeStream:
        """A new stream that receives every future delta."""
        stream = ChangeStream()
        self._streams.append(stream)
        return stream

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, rows: Table | Mapping[str, Sequence[Any]]) -> Delta:
        """Append rows; returns the published insert delta."""
        new = self._coerce_rows(rows)
        if new.num_rows == 0:
            raise IncrementalError("insert requires at least one row")
        ids = np.arange(
            self._next_row_id, self._next_row_id + new.num_rows, dtype=np.int64
        )
        self._next_row_id += new.num_rows
        incoming = new.columns()
        self._columns = [
            np.concatenate([col, incoming[c.name]])
            for c, col in zip(self._schema, self._columns)
        ]
        self._row_ids = np.concatenate([self._row_ids, ids])
        self._nrows += new.num_rows
        return self._emit("insert", ids, rows=new, old_rows=None)

    def delete(self, row_ids: Iterable[int]) -> Delta:
        """Remove rows by identity; returns the published delete delta."""
        ids = np.asarray(list(row_ids), dtype=np.int64)
        if ids.size == 0:
            raise IncrementalError("delete requires at least one row id")
        positions = self._positions(ids)
        old = Table(self._schema, [col[positions] for col in self._columns])
        keep = np.ones(self._nrows, dtype=bool)
        keep[positions] = False
        self._columns = [col[keep] for col in self._columns]
        self._row_ids = self._row_ids[keep]
        self._nrows = int(keep.sum())
        return self._emit("delete", ids, rows=None, old_rows=old)

    def update(
        self, row_ids: Iterable[int], rows: Table | Mapping[str, Sequence[Any]]
    ) -> Delta:
        """Replace rows by identity; returns the published update delta."""
        ids = np.asarray(list(row_ids), dtype=np.int64)
        new = self._coerce_rows(rows)
        if new.num_rows != ids.size or ids.size == 0:
            raise IncrementalError(
                f"update needs one row per id: {new.num_rows} rows "
                f"for {ids.size} ids"
            )
        positions = self._positions(ids)
        old = Table(self._schema, [col[positions] for col in self._columns])
        incoming = new.columns()
        fresh = []
        for c, col in zip(self._schema, self._columns):
            col = col.copy()
            col[positions] = incoming[c.name]
            fresh.append(col)
        self._columns = fresh
        return self._emit("update", ids, rows=new, old_rows=old)

    # ------------------------------------------------------------------
    def _coerce_rows(self, rows: Table | Mapping[str, Sequence[Any]]) -> Table:
        if not isinstance(rows, Table):
            rows = Table(
                self._schema,
                [_as_column_array(rows[c.name]) for c in self._schema],
            )
        if rows.schema != self._schema:
            raise IncrementalError(
                f"delta schema {rows.schema!r} != table schema {self._schema!r}"
            )
        return rows

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """Positions of ``ids`` (caller order) in O(|ids| log n)."""
        positions = np.searchsorted(self._row_ids, ids)
        present = positions < self._nrows
        present[present] = self._row_ids[positions[present]] == ids[present]
        if not present.all():
            raise IncrementalError(
                f"row id {int(ids[~present][0])} not present in table "
                f"{self.name!r}"
            )
        ordered = np.sort(positions)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise IncrementalError(
                f"row id {int(self._row_ids[repeated[0]])} repeated in one "
                f"mutation of table {self.name!r}"
            )
        return positions

    def _emit(
        self,
        kind: str,
        ids: np.ndarray,
        rows: Table | None,
        old_rows: Table | None,
    ) -> Delta:
        self.version += 1
        row_ids = tuple(ids.tolist())
        delta = Delta(
            kind, self.version, row_ids, rows, old_rows,
            checksum=_payload_crc(kind, self.version, row_ids, rows, old_rows),
        )
        for stream in self._streams:
            stream.publish(delta)
        return delta
