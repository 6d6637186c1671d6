"""The persistent materialization store.

Columbus showed that model selection's real cost structure is
*lifecycle* cost: feature exploration, grid search, and CV re-derive
the same intermediates — gram matrices, compressed operands, fold
statistics — run after run. A :class:`MaterializationStore` is the
system-level answer: every stored intermediate is identified by its
content-hashed :class:`~repro.materialize.fingerprint.Fingerprint`, and
any later workload that derives a matching intermediate (same structure,
byte-identical operands, same flags) reuses the stored value instead of
recomputing. Because the fingerprint pins
structure *and* operand bytes *and* flags, a hit is bit-identical to
cold execution by construction — the store can go stale-silent (miss),
never stale-wrong (hit on changed data).

Two tiers:

* **Memory** — a byte-budgeted :class:`~repro.cache.BoundedCache`
  counted on a ``bufferpool.*`` :class:`~repro.obs.Ledger`, so
  admission, LRU eviction, pinning and the byte ledger are the same
  discipline and the same series as the runtime's block pool. Pinned
  materializations are never evicted.
* **Disk** — one file per entry in the store directory, written through
  :mod:`repro.persist` (atomic replace, schema ``repro.mat/v1``, CRC32
  over the pickled payload). An entry evicted from memory is re-read
  and re-admitted on its next hit. A corrupted file (bit rot, or chaos
  injected at fault site ``"materialize.read"``) fails its checksum,
  is counted and unlinked, and the lookup reports a miss — the caller
  then *recomputes the value from its lineage* (the operands it was
  derived from) and re-admits it, so repair is recompute, exactly the
  blockstore's recovery model.

Admission is cost-based: an intermediate earns persistence when its
estimated recompute cost clears ``min_flops`` and its flops-per-byte
density clears ``min_flops_per_byte`` — cheap-to-recompute or
bloated-for-their-cost values are not worth their storage. ``pin=True``
bypasses admission (an explicit pin is the operator's override) and
shields the entry from memory-tier eviction.

A store is handed to the code that reads and writes it
(``ridge_feature_grid(store=)``, :class:`repro.features.FeatureStore`);
the executor and the compiler never see one.
"""

from __future__ import annotations

import os
import pickle
import threading
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from ..cache import BoundedCache
from ..errors import MaterializationError
from ..obs import Counted, Ledger
from ..persist import read_verified, write_atomic
from ..resilience.faults import fault_point
from ..operand import kind_of, operand_bytes
from ..runtime.bufferpool import pool_ledger
from .fingerprint import Fingerprint
from .lineage import LineageGraph

SCHEMA = "repro.mat/v1"

#: default byte budget of the in-memory tier.
DEFAULT_CAPACITY_BYTES = 256 << 20
#: default admission floor on estimated recompute flops.
DEFAULT_MIN_FLOPS = 100_000.0


class EntryMeta:
    """Book-keeping for one materialized entry."""

    __slots__ = ("key", "label", "kind", "shape", "nbytes", "flops",
                 "pinned", "hits")

    def __init__(self, key, label, kind, shape, nbytes, flops, pinned):
        self.key = key
        self.label = label
        self.kind = kind
        self.shape = shape
        self.nbytes = int(nbytes)
        self.flops = float(flops)
        self.pinned = bool(pinned)
        self.hits = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "kind": self.kind,
            "shape": list(self.shape) if self.shape else None,
            "nbytes": self.nbytes,
            "flops": self.flops,
            "pinned": self.pinned,
            "hits": self.hits,
        }


class MaterializationStore(Counted):
    """Fingerprint-keyed, two-tier store of derived intermediate values.

    Args:
        directory: persistence root (created if missing). ``None`` keeps
            the store memory-only — entries die with eviction.
        capacity_bytes: byte budget of the in-memory tier.
        min_flops: admission floor on estimated recompute cost.
        min_flops_per_byte: admission floor on recompute-cost density —
            a value must be at least this expensive per stored byte.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        min_flops: float = DEFAULT_MIN_FLOPS,
        min_flops_per_byte: float = 0.0,
    ):
        if min_flops < 0 or min_flops_per_byte < 0:
            raise MaterializationError("admission floors must be >= 0")
        self.directory = Path(directory) if directory is not None else None
        self.min_flops = float(min_flops)
        self.min_flops_per_byte = float(min_flops_per_byte)
        if capacity_bytes <= 0:
            raise MaterializationError("memory tier capacity must be positive")
        self.pool = BoundedCache(capacity_bytes, pool_ledger())
        self.lineage = LineageGraph()
        self._meta: dict[str, EntryMeta] = {}
        self._seen: set[str] = set()
        self._lock = threading.RLock()
        self.counts = Ledger("materialize", (
            "hits", "misses", "disk_hits", "puts", "rejected", "recomputes",
            "corrupt_entries", "bytes_materialized", "bytes_reused",
        ))
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._scan_directory()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        if self.directory is None:
            raise MaterializationError("store has no persistence directory")
        return self.directory / f"{key}.mat"

    def _scan_directory(self) -> None:
        """Index persisted entries (headers only; payload verified on read)."""
        import json

        for path in sorted(self.directory.glob("*.mat")):
            try:
                with open(path, "rb") as fh:
                    first = fh.readline()
                header = json.loads(first.decode("utf-8"))
            except (OSError, UnicodeDecodeError, ValueError):
                continue
            if header.get("schema") != SCHEMA:
                continue
            key = header.get("key") or path.stem
            shape = header.get("shape")
            meta = EntryMeta(
                key=key,
                label=header.get("label", ""),
                kind=header.get("kind", "dense"),
                shape=tuple(shape) if shape else None,
                nbytes=header.get("nbytes", 0),
                flops=header.get("flops", 0.0),
                pinned=header.get("pinned", False),
            )
            self._meta[key] = meta
            self._seen.add(key)
            children = header.get("children") or ()
            self.lineage.record(
                key,
                meta.label,
                header.get("structural", ""),
                shape=meta.shape,
                nbytes=meta.nbytes,
                flops=meta.flops,
                children=children,
            )

    @staticmethod
    def _key_of(fp: Fingerprint | str) -> str:
        return fp if isinstance(fp, str) else fp.key

    # -- admission ------------------------------------------------------
    def should_admit(self, flops: float, nbytes: int) -> bool:
        """Cost-based admission: recompute cost must pay for the bytes."""
        if flops < self.min_flops:
            return False
        if nbytes > 0 and flops / nbytes < self.min_flops_per_byte:
            return False
        return True

    # -- write path -----------------------------------------------------
    def put(
        self,
        fp: Fingerprint | str,
        value,
        label: str = "",
        flops: float = 0.0,
        structural: str = "",
        children: Iterable[str] = (),
        pin: bool = False,
        source: str = "plan",
        nbytes: int | None = None,
    ) -> bool:
        """Offer one computed value; returns whether it was admitted.

        Dense arrays are stored as private copies so later caller-side
        mutation cannot reach the store. Re-admitting a key the store
        has seen before (after corruption or loss) counts as a lineage
        recompute. ``nbytes`` overrides the sizing for values
        :func:`~repro.operand.operand_bytes` cannot measure
        (e.g. relational tables).
        """
        key = self._key_of(fp)
        if nbytes is None:
            nbytes = operand_bytes(value)
        with self._lock:
            if key in self._meta:
                return True  # already materialized; nothing to do
            if not pin and not self.should_admit(flops, nbytes):
                self.counts.inc("rejected")
                return False
            if isinstance(value, np.ndarray):
                value = np.array(value, dtype=np.float64, copy=True)
            kind = kind_of(value)
            shape = tuple(getattr(value, "shape", ())) or None
            if key in self._seen:
                self.counts.inc("recomputes")
            meta = EntryMeta(key, label, kind, shape, nbytes, flops, pin)
            if self.directory is not None:
                self._persist(meta, value, structural, tuple(children))
            self._meta[key] = meta
            self._seen.add(key)
            self.pool.put(key, value, nbytes, pin=pin)
            self.lineage.record(
                key,
                label,
                structural,
                shape=shape,
                nbytes=nbytes,
                flops=flops,
                children=children,
                source=source,
            )
            self.counts.inc("puts")
            self.counts.inc("bytes_materialized", nbytes)
            return True

    def _persist(
        self, meta: EntryMeta, value, structural: str,
        children: tuple[str, ...],
    ) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        write_atomic(
            self._path(meta.key),
            payload,
            SCHEMA,
            extra={
                "key": meta.key,
                "label": meta.label,
                "kind": meta.kind,
                "shape": list(meta.shape) if meta.shape else None,
                "nbytes": meta.nbytes,
                "flops": meta.flops,
                "pinned": meta.pinned,
                "structural": structural,
                "children": list(children),
            },
            error_cls=MaterializationError,
            what="materialized entry",
            tmp_prefix=".mat-",
        )

    # -- read path ------------------------------------------------------
    def lookup(self, fp: Fingerprint | str):
        """The stored value, or ``None`` (miss — caller recomputes).

        Misses cover never-seen fingerprints, entries lost to memory
        eviction in a directory-less store, and entries whose persisted
        bytes failed their CRC — the last are unlinked so the caller's
        recompute can re-materialize them cleanly.
        """
        key = self._key_of(fp)
        with self._lock:
            meta = self._meta.get(key)
            if meta is None:
                self.counts.inc("misses")
                return None
            value = self.pool.get(key)
            self.pool.stats.inc("misses" if value is None else "hits")
            if value is None and self.directory is not None:
                value = self._load_disk(key, meta)
                if value is not None:
                    self.counts.inc("disk_hits")
                    self.pool.put(key, value, meta.nbytes, pin=meta.pinned)
            if value is None:
                # lost (evicted with no disk tier, or corrupt on disk)
                del self._meta[key]
                self.counts.inc("misses")
                return None
            meta.hits += 1
            self.counts.inc("hits")
            self.counts.inc("bytes_reused", meta.nbytes)
            return value

    def _load_disk(self, key: str, meta: EntryMeta):
        path = self._path(key)
        if not path.exists():
            return None
        if fault_point("materialize.read", key=key) == "corrupt":
            self.corrupt(key)
        try:
            _, payload = read_verified(
                path,
                SCHEMA,
                error_cls=MaterializationError,
                what="materialized entry",
            )
        except MaterializationError:
            self.counts.inc("corrupt_entries")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return pickle.loads(payload)

    # -- pinning --------------------------------------------------------
    def pin(self, fp: Fingerprint | str) -> None:
        """Pin an entry: admission override + never evicted from memory."""
        key = self._key_of(fp)
        with self._lock:
            meta = self._meta.get(key)
            if meta is None:
                raise MaterializationError(f"cannot pin unknown entry {key!r}")
            meta.pinned = True
            self.pool.pin(key)

    # -- maintenance / introspection -----------------------------------
    def corrupt(self, fp: Fingerprint | str) -> None:
        """Flip one byte of a persisted entry (test/chaos hook).

        The flipped position derives from the key, so injected
        corruption is deterministic — the same idiom as
        :meth:`repro.runtime.bufferpool.BlockStore.corrupt`.
        """
        import zlib

        key = self._key_of(fp)
        path = self._path(key)
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        body = raw[newline + 1 :]
        if not body:
            return
        pos = newline + 1 + zlib.crc32(key.encode("utf-8")) % len(body)
        mutated = raw[:pos] + bytes([raw[pos] ^ 0xFF]) + raw[pos + 1 :]
        path.write_bytes(mutated)
        # drop the memory copy so the next lookup exercises the disk tier
        with self._lock:
            if self.pool.remove(key):
                self.pool.stats.inc("invalidations")

    def entries(self) -> list[dict[str, Any]]:
        with self._lock:
            return [
                self._meta[k].as_dict() for k in sorted(self._meta)
            ]

    def __len__(self) -> int:
        return len(self._meta)

    def ledger(self) -> dict[str, Any]:
        """Exact reuse accounting (the E24 gates check these)."""
        with self._lock:
            return self.counts.as_dict() | {
                "entries": len(self._meta),
                "resident_bytes": self.pool.used,
                "capacity_bytes": self.pool.budget,
                "evictions": self.pool.stats.evictions,
                "pinned": sum(1 for m in self._meta.values() if m.pinned),
            }

    def describe(self) -> str:
        led = self.ledger()
        lines = [
            f"materialization store ({led['entries']} entries, "
            f"{led['resident_bytes']}/{led['capacity_bytes']}B resident)",
            f"  hits {led['hits']} (disk {led['disk_hits']}) / "
            f"misses {led['misses']} / evictions {led['evictions']}",
            f"  bytes reused {led['bytes_reused']} / "
            f"materialized {led['bytes_materialized']}",
        ]
        if len(self.lineage):
            lines.append(self.lineage.describe())
        return "\n".join(lines)
