"""Atomic, schema-versioned, CRC-checksummed single-file persistence.

Four subsystems persist state the same way — the checkpointer
(:mod:`repro.resilience.checkpoint`), the feedback store
(:mod:`repro.compiler.feedback`), the materialization store
(:mod:`repro.materialize.store`) and the model registry
(:mod:`repro.lifecycle.registry`) — and all need the same guarantees:

* **Atomic** — bytes go to a temp file in the target directory and are
  ``os.replace``d into place, so a crash mid-write can never leave a
  truncated file under a valid name.
* **Versioned** — every file opens with a one-line JSON header carrying
  a schema string; readers reject files written under another schema
  instead of silently misreading old bytes.
* **Checksummed** — the header records the payload's CRC32 and byte
  length; both are verified on read, so bit rot and truncation are
  *detected* failures the caller can recover from (checkpoints fall
  back to an older file, feedback to cold estimates, materializations
  to lineage recompute).

File layout: ``<json header>\\n<payload bytes>``. The header is
``json.dumps(..., sort_keys=True)`` of ``extra | {schema, crc32,
payload_bytes}`` — byte-identical to what the pre-refactor writers
produced, so files saved by older builds load unchanged.

Callers keep their own error taxonomy: every function takes the
exception class to raise and a ``what`` label used in messages
(``"checkpoint"``, ``"feedback store"``, ...).
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from typing import Any

from .errors import ReproError


class PersistenceError(ReproError):
    """Default error for atomic-file persistence failures."""


def write_atomic(
    path: str | os.PathLike,
    payload: bytes,
    schema: str,
    extra: dict[str, Any] | None = None,
    error_cls: type[Exception] = PersistenceError,
    what: str = "file",
    tmp_prefix: str | None = None,
) -> str:
    """Write ``header + payload`` atomically; returns the final path.

    The temp file is fsynced before the rename so the replace is
    durable, and unlinked on any failure so aborted writes leave no
    debris next to the target.
    """
    target = os.fspath(path)
    header_fields: dict[str, Any] = dict(extra or {})
    header_fields["schema"] = schema
    header_fields["crc32"] = zlib.crc32(payload)
    header_fields["payload_bytes"] = len(payload)
    header = json.dumps(header_fields, sort_keys=True).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(target))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=tmp_prefix or ".atomic-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header + b"\n" + payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, target)
    except OSError as exc:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise error_cls(f"could not write {what} {target}") from exc
    return target


def verify_bytes(
    raw: bytes,
    schema: str,
    error_cls: type[Exception] = PersistenceError,
    what: str = "file",
    name: str = "",
) -> tuple[dict[str, Any], bytes]:
    """Split and verify ``header\\npayload`` bytes -> (header, payload).

    Raises ``error_cls`` on a missing/unreadable header, a schema
    mismatch, a truncated payload, or a checksum failure — the exact
    failure taxonomy every reader here recovers from.
    """
    label = f"{what} {name}".rstrip()
    newline = raw.find(b"\n")
    if newline < 0:
        raise error_cls(f"{label} has no header")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error_cls(f"{label} header unreadable") from exc
    if header.get("schema") != schema:
        raise error_cls(
            f"{label} has schema {header.get('schema')!r}, "
            f"expected {schema!r}"
        )
    payload = raw[newline + 1 :]
    if len(payload) != header.get("payload_bytes"):
        raise error_cls(f"{label} is truncated")
    if zlib.crc32(payload) != header.get("crc32"):
        raise error_cls(f"{label} failed its checksum")
    return header, payload


def read_verified(
    path: str | os.PathLike,
    schema: str,
    error_cls: type[Exception] = PersistenceError,
    what: str = "file",
) -> tuple[dict[str, Any], bytes]:
    """Read one atomic file and verify it -> (header, payload)."""
    target = os.fspath(path)
    try:
        with open(target, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise error_cls(f"could not read {what} {target}") from exc
    return verify_bytes(raw, schema, error_cls, what=what, name=target)
