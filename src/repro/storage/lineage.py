"""Content fingerprints of tables.

:func:`table_fingerprint` is a SHA-256 over a table's schema and column
bytes (pure content; the table's catalog name never enters), so two
byte-identical tables share one identity no matter which catalog holds
them. :class:`~repro.features.FeatureView` keys its materializations on
it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .table import Table


def table_fingerprint(table: Table) -> str:
    """``table:sha256`` over a table's schema and column content."""
    h = hashlib.sha256()
    for col in table.schema:
        h.update(f"{col.name}:{col.ctype.name};".encode("utf-8"))
    for name in table.schema.names:
        arr = table.column(name)
        h.update(name.encode("utf-8"))
        h.update(b":")
        if arr.dtype.kind in ("U", "S", "O"):
            for v in arr:
                h.update(str(v).encode("utf-8"))
                h.update(b"\x00")
        else:
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"|")
    return f"table:{h.hexdigest()}"
