"""Atomic, versioned, checksummed checkpoints for iterative jobs.

SystemML recomputes lost intermediates from the plan; Spark from
lineage; long-running training jobs everywhere else from *checkpoints* —
the asset-management surveys list checkpointed model state as a core
operational requirement. An :class:`IterativeCheckpointer` gives every
iterative driver here (GLM gradient descent, k-means, out-of-core
regression, model-selection searches) the same kill-and-resume
contract:

* **Atomic** — state is serialized to a temp file in the same directory
  and ``os.replace``d into place, so a crash mid-write can never leave a
  truncated checkpoint with a valid name.
* **Versioned** — every file carries a schema header
  (``repro.ckpt/v1``); future layout changes bump the version instead of
  silently misreading old bytes.
* **Checksummed** — the pickled payload's CRC32 is stored in the header
  and verified on load; a corrupt checkpoint is *skipped* (falling back
  to the newest older valid one) rather than restored wrong.

Because each driver's loop is a deterministic function of its saved
state, resuming from iteration k reproduces the uninterrupted run's
final model bit-for-bit — the property E21's kill/resume leg asserts.
"""

from __future__ import annotations

import os
import pickle
import re
from pathlib import Path
from typing import Any

from ..errors import CheckpointError
from ..obs import get_registry, span
from ..persist import read_verified, write_atomic

SCHEMA = "repro.ckpt/v1"
_FILE_RE = re.compile(r"^(?P<name>.+)-(?P<step>\d{8})\.ckpt$")


class IterativeCheckpointer:
    """Directory of ``<name>-<step>.ckpt`` files with atomic writes.

    Args:
        directory: where checkpoints live (created if missing).
        name: job name — one directory can hold several jobs.
        keep: how many most-recent checkpoints to retain (older ones are
            pruned after each successful save). ``None`` keeps all.
        interval: :meth:`should_checkpoint` returns True every
            ``interval`` steps — drivers call it so checkpoint cadence
            is policy, not code.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        name: str = "job",
        keep: int | None = 2,
        interval: int = 1,
    ):
        if keep is not None and keep < 1:
            raise CheckpointError(f"keep must be >= 1 or None, got {keep}")
        if interval < 1:
            raise CheckpointError(f"interval must be >= 1, got {interval}")
        if "/" in name or name != name.strip() or not name:
            raise CheckpointError(f"invalid checkpoint job name {name!r}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.keep = keep
        self.interval = interval

    # ------------------------------------------------------------------
    def _path(self, step: int) -> Path:
        return self.directory / f"{self.name}-{step:08d}.ckpt"

    def should_checkpoint(self, step: int) -> bool:
        return step % self.interval == 0

    def steps(self) -> list[int]:
        """All steps with a checkpoint file for this job, ascending."""
        found = []
        for path in self.directory.iterdir():
            match = _FILE_RE.match(path.name)
            if match and match.group("name") == self.name:
                found.append(int(match.group("step")))
        return sorted(found)

    # ------------------------------------------------------------------
    def save(self, step: int, state: dict[str, Any]) -> Path:
        """Atomically persist one step's state; returns the final path."""
        if step < 0:
            raise CheckpointError(f"step must be >= 0, got {step}")
        if not isinstance(state, dict):
            raise CheckpointError(
                f"state must be a dict, got {type(state).__name__}"
            )
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        target = self._path(step)
        with span("checkpoint.save", job=self.name, step=step):
            write_atomic(
                target,
                payload,
                SCHEMA,
                extra={"job": self.name, "step": step},
                error_cls=CheckpointError,
                what="checkpoint",
                tmp_prefix=f".{self.name}-",
            )
        registry = get_registry()
        registry.inc("checkpoint.saves")
        registry.inc(
            "checkpoint.bytes_written", os.path.getsize(target)
        )
        self._prune()
        return target

    def _prune(self) -> None:
        if self.keep is None:
            return
        steps = self.steps()
        for step in steps[: -self.keep]:
            try:
                self._path(step).unlink()
                get_registry().inc("checkpoint.pruned")
            except OSError:
                pass  # pruning is best-effort

    # ------------------------------------------------------------------
    def load(self, step: int) -> dict[str, Any]:
        """Load and verify one step (raises on corruption/mismatch)."""
        path = self._path(step)
        if not path.exists():
            raise CheckpointError(f"no checkpoint for step {step} at {path}")
        _, payload = read_verified(
            path, SCHEMA, error_cls=CheckpointError, what="checkpoint"
        )
        state = pickle.loads(payload)
        registry = get_registry()
        registry.inc("checkpoint.restores")
        return state

    def load_latest(self) -> tuple[int, dict[str, Any]] | None:
        """Newest *valid* checkpoint as ``(step, state)``, or None.

        Corrupt or truncated files are skipped (and counted in the obs
        registry) so one bad write never blocks recovery.
        """
        for step in reversed(self.steps()):
            try:
                return step, self.load(step)
            except CheckpointError:
                get_registry().inc("checkpoint.corrupt_skipped")
                continue
        return None
