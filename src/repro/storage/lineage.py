"""Table-operator fingerprints and materialized-operator reuse.

The materialization store's matching rule — content-hashed identity over
structure x operands x flags — applies to the relational layer as well
as to linear-algebra sub-plans: a feature mart built by a deterministic
operator pipeline over byte-identical base tables is the same mart, no
matter which workload asks for it. This module supplies the relational
half of that identity:

* :func:`table_fingerprint` — a SHA-256 over a table's schema and
  column bytes (pure content; the table's catalog name never enters).
* :func:`operator_fingerprint` — a full
  :class:`~repro.materialize.fingerprint.Fingerprint` for one operator
  application: the operator name plus its canonicalized parameters form
  the structural component, input-table content hashes the operand
  component.
* :func:`materialized_operator` — the reuse wrapper: consult an (opt-in)
  store before running the operator, offer the result after. Entries
  are keyed by content, not by a version counter: they survive process
  restarts, match across *different* catalogs bound to the same bytes,
  and a re-registered table that is byte-identical still hits.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

import numpy as np

from ..materialize.fingerprint import Fingerprint
from ..materialize.store import MaterializationStore, active_store
from .table import Table

#: flops-estimate stand-in for operator cost: rows processed per call.
#: Relational operators are memory-bound, so "rows touched" is the unit
#: the store's admission floor sees (set ``min_flops`` accordingly on
#: stores dedicated to table reuse).
_ROWS_AS_FLOPS = 1.0


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


def _canonical_params(params: dict[str, Any]) -> str:
    try:
        return json.dumps(params, sort_keys=True, default=str)
    except TypeError:
        return repr(sorted(params.items()))


def operator_fingerprint(
    op: str, inputs: tuple[Table, ...] | list[Table], params: dict[str, Any]
) -> Fingerprint:
    """Fingerprint one relational-operator application.

    Structural component: the operator name and its canonicalized
    parameters (sorted-key JSON). Operand component: the input tables'
    content hashes, in argument order. Flags are unused at this layer.
    """
    structural = hashlib.sha256(
        f"tableop:{op}({_canonical_params(params)})".encode("utf-8")
    ).hexdigest()
    operands = tuple(table_fingerprint(t) for t in inputs)
    return Fingerprint(structural=structural, operands=operands, flags="")


def materialized_operator(
    op: str,
    fn: Callable[..., Table],
    *inputs: Table,
    params: dict[str, Any] | None = None,
    store: MaterializationStore | None = None,
) -> Table:
    """Run ``fn(*inputs, **params)`` through the materialization store.

    With no store (argument or enclosing scope), this is a plain call.
    Otherwise the operator's fingerprint is looked up first; a miss runs
    the operator and offers the result with ``source="table"`` lineage
    whose children are the input tables' content hashes — so provenance
    reads end-to-end from base bytes to derived mart.
    """
    params = params or {}
    store = store if store is not None else active_store()
    if store is None:
        return fn(*inputs, **params)
    fp = operator_fingerprint(op, inputs, params)
    cached = store.lookup(fp)
    if cached is not None:
        return cached
    result = fn(*inputs, **params)
    rows = sum(t.num_rows for t in inputs) or getattr(result, "num_rows", 0)
    store.put(
        fp,
        result,
        label=f"tableop:{op}",
        flops=rows * _ROWS_AS_FLOPS,
        structural=f"tableop:{op}({_canonical_params(params)})",
        children=fp.operands,
        source="table",
        nbytes=_table_bytes(result) if isinstance(result, Table) else None,
    )
    # record the base tables so lineage bottoms out at real content
    for t, key in zip(inputs, fp.operands):
        if key not in store.lineage:
            store.lineage.record(
                key,
                "table:base",
                key,
                shape=(t.num_rows, t.num_columns),
                nbytes=_table_bytes(t),
                source="table",
            )
    return result


def _table_bytes(table: Table) -> int:
    return sum(int(np.asarray(c).nbytes) for c in table.columns().values())
