"""Content-hashed plan fingerprints.

A fingerprint identifies *what a sub-plan computes*, independent of the
incidental names it computes it over: two workloads that evaluate the
same expression shape over byte-identical operands under the same
optimizer flags get the same fingerprint — that is the matching rule
the materialization store reuses intermediates by, and the reason a hit
is always bit-identical to cold execution.

Three components, hashed separately so provenance stays inspectable:

* **structural** — a canonical serialization of the sub-plan in which
  every :class:`~repro.lang.ast.Data` leaf is replaced by a positional
  placeholder (``$0``, ``$1``, ... in first-occurrence order of a
  deterministic left-to-right walk). Renaming an input cannot change
  it; any change to an operator, shape, axis, fused kind, Convert
  target, or embedded constant does.
* **operands** — one content hash per placeholder, in placeholder
  order: the storage kind tag plus a SHA-256 over the operand's dense
  bytes. Binding different data (or the same data in a different
  representation, whose kernels may round differently) changes the
  fingerprint, so stale entries can never match.
* **flags** — the compiler pass list the plan was produced under, so a
  plan compiled with e.g. fusion disabled never matches a fused run.

Everything is derived from content via SHA-256 — no ``id()``, no
``hash()`` — so fingerprints are stable across process restarts and
under ``PYTHONHASHSEED`` (property-tested).

Operand hashing is the per-execution cost of matching, so content
hashes are memoized on object identity through weak references: an
operand held across a driver's iterations is hashed once. Operands are
treated as immutable while a store is active (the same contract the
executor's own memoization already assumes).
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass

import numpy as np

from ..errors import MaterializationError
from ..lang.ast import Aggregate, Binary, Constant, Convert, Data, Fused, \
    MatMul, Node, Transpose, Unary
from ..operand import densify, kind_of


# ----------------------------------------------------------------------
# Canonical structural serialization
# ----------------------------------------------------------------------
#: canonical strings memoized per live root node (id -> (ref, canon, order))
_CANON_CACHE: dict[int, tuple] = {}


def canonical_plan(node: Node) -> tuple[str, tuple[str, ...]]:
    """Canonical serialization plus the Data-name placeholder order.

    The serialization is pure content: operator tags, shapes, constant
    digests, and ``$i`` placeholders. Two nodes serialize identically
    iff they compute the same function of their positional inputs.
    """
    cached = _CANON_CACHE.get(id(node))
    if cached is not None and cached[0]() is node:
        return cached[1], cached[2]
    order: list[str] = []
    positions: dict[str, int] = {}
    canon = _render(node, positions, order)
    result = (canon, tuple(order))
    try:
        ref = weakref.ref(node, lambda _, i=id(node): _CANON_CACHE.pop(i, None))
        _CANON_CACHE[id(node)] = (ref, canon, tuple(order))
    except TypeError:
        pass
    return result


def _render(node: Node, positions: dict[str, int], order: list[str]) -> str:
    shape = f"{node.shape[0]}x{node.shape[1]}"
    if isinstance(node, Data):
        idx = positions.get(node.name)
        if idx is None:
            idx = positions[node.name] = len(positions)
            order.append(node.name)
        return f"data(${idx}:{shape})"
    if isinstance(node, Constant):
        digest = hashlib.sha256(
            np.ascontiguousarray(node.value, dtype=np.float64).tobytes()
        ).hexdigest()[:16]
        return f"const({shape}:{digest})"
    children = ",".join(_render(c, positions, order) for c in node.children)
    if isinstance(node, Binary):
        tag = f"binary:{node.op}"
    elif isinstance(node, Unary):
        tag = f"unary:{node.op}"
    elif isinstance(node, MatMul):
        tag = "matmul"
    elif isinstance(node, Transpose):
        tag = "transpose"
    elif isinstance(node, Aggregate):
        tag = f"agg:{node.op}:{node.axis}"
    elif isinstance(node, Convert):
        tag = f"convert:{node.target}"
    elif isinstance(node, Fused):
        tag = f"fused:{node.kind}"
    else:
        raise MaterializationError(
            f"cannot fingerprint node type {type(node).__name__}"
        )
    return f"{tag}({shape};{children})"


# ----------------------------------------------------------------------
# Operand content hashing (memoized on object identity)
# ----------------------------------------------------------------------
_CONTENT_CACHE: dict[int, tuple] = {}


def content_hash(value) -> str:
    """``kind:sha256`` over an operand's dense bytes.

    The kind tag keeps representations apart: a CLA-bound operand only
    matches a CLA-bound operand with the same dense content, because
    each kind's kernels have their own floating-point rounding. (Each
    kind's conversion is a deterministic function of the dense content,
    so equal tags plus equal bytes implies bit-equal kernel behavior.)
    """
    cached = _CONTENT_CACHE.get(id(value))
    if cached is not None and cached[0]() is value:
        return cached[1]
    kind = kind_of(value)
    arr = np.ascontiguousarray(densify(value))
    h = hashlib.sha256()
    h.update(kind.encode("utf-8"))
    h.update(f":{arr.shape[0]}x{arr.shape[1] if arr.ndim > 1 else 1}:".encode())
    h.update(arr.tobytes())
    digest = f"{kind}:{h.hexdigest()}"
    try:
        ref = weakref.ref(
            value, lambda _, i=id(value): _CONTENT_CACHE.pop(i, None)
        )
        _CONTENT_CACHE[id(value)] = (ref, digest)
    except TypeError:
        pass
    return digest


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fingerprint:
    """Identity of one executed sub-plan: structure x operands x flags."""

    structural: str
    operands: tuple[str, ...]
    flags: str

    @property
    def key(self) -> str:
        """The store key: SHA-256 over all three components."""
        h = hashlib.sha256()
        h.update(self.structural.encode("utf-8"))
        for op in self.operands:
            h.update(b"|")
            h.update(op.encode("utf-8"))
        h.update(b"||")
        h.update(self.flags.encode("utf-8"))
        return h.hexdigest()
