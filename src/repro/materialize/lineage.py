"""Lineage graph over materialized intermediates.

Every entry the store admits gets a lineage record: what it computes (a
human-readable label and the canonical structural digest), what it was
computed *from* (the keys of the nearest materialized sub-plans beneath
it, or table fingerprints for relational operators), and how expensive
it is to rebuild. The graph serves two purposes:

* **Repair** — a corrupted or lost entry is never an error: its record
  says the value is a deterministic function of the plan below it, so
  the store reports a miss, the executor re-derives the value from the
  (possibly still-materialized) children, and the fresh result is
  re-admitted. This is the blockstore's recompute-from-lineage model
  lifted from single blocks to whole sub-plans.
* **Provenance** — ``describe()`` renders the reuse web: which
  workloads' intermediates feed which, and what a pinned entry shields
  from recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass
class LineageRecord:
    """One materialized value's provenance."""

    key: str
    label: str
    structural: str
    shape: tuple[int, int] | None = None
    nbytes: int = 0
    flops: float = 0.0
    children: tuple[str, ...] = ()
    source: str = "plan"  # "plan" (DSL sub-plan) or "table" (relational op)

    def as_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "structural": self.structural,
            "shape": list(self.shape) if self.shape else None,
            "nbytes": self.nbytes,
            "flops": self.flops,
            "children": list(self.children),
            "source": self.source,
        }


class LineageGraph:
    """Directed acyclic graph of materialized-entry provenance."""

    def __init__(self) -> None:
        self._records: dict[str, LineageRecord] = {}
        self._parents: dict[str, set[str]] = {}

    def record(
        self,
        key: str,
        label: str,
        structural: str,
        shape=None,
        nbytes: int = 0,
        flops: float = 0.0,
        children: Iterable[str] = (),
        source: str = "plan",
    ) -> LineageRecord:
        rec = LineageRecord(
            key=key,
            label=label,
            structural=structural,
            shape=tuple(shape) if shape else None,
            nbytes=int(nbytes),
            flops=float(flops),
            children=tuple(children),
            source=source,
        )
        self._records[key] = rec
        for child in rec.children:
            self._parents.setdefault(child, set()).add(key)
        return rec

    def get(self, key: str) -> LineageRecord | None:
        return self._records.get(key)

    def children(self, key: str) -> tuple[str, ...]:
        rec = self._records.get(key)
        return rec.children if rec else ()

    def parents(self, key: str) -> tuple[str, ...]:
        """Entries derived (directly) from this one, sorted for determinism."""
        return tuple(sorted(self._parents.get(key, ())))

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def as_dict(self) -> dict[str, Any]:
        return {k: self._records[k].as_dict() for k in sorted(self._records)}

    def describe(self) -> str:
        lines = []
        for key in sorted(self._records):
            rec = self._records[key]
            deps = (
                f" <- {len(rec.children)} dep(s)" if rec.children else ""
            )
            lines.append(
                f"{key[:12]} [{rec.source}] {rec.label} "
                f"({rec.nbytes}B, {rec.flops:.3g} flops){deps}"
            )
        return "\n".join(lines) if lines else "(empty lineage)"
