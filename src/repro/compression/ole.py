"""Offset-List Encoding (OLE).

For each distinct value-tuple, store the sorted list of row offsets where
it occurs. Rows absent from every offset list carry the group's
``default`` tuple (all-zero after encoding, so sparse columns need no
lists at all). Matrix-vector is one scatter-add over the flat offsets;
vector-matrix is a gather-sum per dictionary entry; both add a
closed-form default contribution covering the unlisted rows. Keeping
the default explicit is what lets elementwise maps like ``X + c``
rewrite the dictionary and the default in O(cardinality) instead of
decompressing.
"""

from __future__ import annotations

import numpy as np

from ..errors import CompressionError
from .colgroup import ColumnGroup, build_dictionary

_OFFSET_BYTES = 4  # uint32 row offsets


class OLEGroup(ColumnGroup):
    """Dictionary + per-entry offset lists for a set of columns."""

    scheme = "ole"

    def __init__(
        self,
        col_indices: np.ndarray,
        num_rows: int,
        dictionary: np.ndarray,
        offset_lists: list[np.ndarray],
        default: np.ndarray | None = None,
    ):
        super().__init__(col_indices, num_rows)
        self.dictionary = np.asarray(dictionary, dtype=np.float64)
        lists = [np.asarray(o, dtype=np.uint32) for o in offset_lists]
        if len(lists) != len(self.dictionary):
            raise CompressionError("one offset list required per dictionary entry")
        # one flat row array; the per-entry lists are views into it
        self.counts = np.fromiter(map(len, lists), np.intp, len(lists))
        self.offsets = np.concatenate([np.empty(0, np.uint32), *lists])
        ends = np.cumsum(self.counts).tolist()
        self.offset_lists = [
            self.offsets[end - count : end]
            for end, count in zip(ends, self.counts.tolist())
        ]
        if default is None:
            default = np.zeros(self.num_cols)
        self.default = np.asarray(default, dtype=np.float64).reshape(-1)
        if len(self.default) != self.num_cols:
            raise CompressionError(
                f"default tuple has {len(self.default)} values for "
                f"{self.num_cols} columns"
            )

    @classmethod
    def encode(cls, col_indices: np.ndarray, panel: np.ndarray) -> "OLEGroup":
        """Encode a dense (n, k) panel; all-zero tuples are left implicit.

        The kept entries' rows, stably sorted by code and split at their
        counts, are the offset lists, each ascending."""
        panel = np.asarray(panel, dtype=np.float64)
        dictionary, codes = build_dictionary(panel)
        kept = (dictionary != 0.0).any(axis=1)
        rows = np.flatnonzero(kept[codes])
        rows = rows[np.argsort(codes[rows], kind="stable")].astype(np.uint32)
        counts = np.bincount(codes, minlength=len(dictionary))[kept]
        offset_lists = np.split(rows, np.cumsum(counts))[:-1]
        return cls(col_indices, panel.shape[0], dictionary[kept], offset_lists)

    @property
    def num_distinct(self) -> int:
        return len(self.dictionary)

    def matvec_add(self, v: np.ndarray, out: np.ndarray) -> None:
        v_part = v[self.col_indices]
        base = float(self.default @ v_part)
        if base != 0.0:
            out += base
        # Each row is in at most one list, so one scatter adds each
        # listed row's delta once. vecdot is one dot per entry, rounded
        # as `entry @ v_part`; a gemv over the dictionary rounds
        # differently once an entry has two or more columns.
        deltas = np.vecdot(self.dictionary, v_part) - base
        out[self.offsets] += np.repeat(deltas, self.counts)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        result = np.zeros(self.num_cols)
        if np.any(self.default != 0.0):
            result += float(u.sum()) * self.default
        for entry, offsets in zip(self.dictionary, self.offset_lists):
            result += u[offsets].sum() * (entry - self.default)
        return result

    def colsums(self) -> np.ndarray:
        result = self.num_rows * self.default.copy()
        for entry, offsets in zip(self.dictionary, self.offset_lists):
            result += len(offsets) * (entry - self.default)
        return result

    def decompress(self) -> np.ndarray:
        out = np.broadcast_to(self.default, (self.num_rows, self.num_cols))
        out = np.array(out)
        for entry, offsets in zip(self.dictionary, self.offset_lists):
            out[offsets] = entry
        return out

    def map_values(self, fn) -> "OLEGroup":
        new_dict = (
            fn(self.dictionary)
            if self.num_distinct
            else self.dictionary.copy()
        )
        return OLEGroup(
            self.col_indices,
            self.num_rows,
            new_dict,
            self.offset_lists,
            default=fn(self.default),
        )

    def compressed_bytes(self) -> int:
        return (
            self.dictionary.nbytes
            + self.default.nbytes
            + len(self.offsets) * _OFFSET_BYTES
        )


def estimated_ole_bytes(
    n: int, k: int, num_distinct: int, nonzero_rows: int
) -> int:
    """Planner estimate of OLE storage for an (n, k) panel."""
    return num_distinct * k * 8 + nonzero_rows * _OFFSET_BYTES
