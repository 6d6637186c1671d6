"""Model registry with versioning and lineage (ModelDB-lite).

Registered models are immutable versioned entries carrying
hyperparameters, metrics, tags, and an optional parent version — enough
to answer the lifecycle questions the tutorial raises: which model is
deployed, what produced it, and how did it evolve.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import LifecycleError
from ..obs import get_registry
from ..persist import read_verified, write_atomic

#: the header schema of a registry file (one JSON line, then the payload)
REGISTRY_SCHEMA = "repro.registry/v1"


@dataclass(frozen=True)
class ModelVersion:
    """One immutable registered version of a named model."""

    name: str
    version: int
    model: Any
    params: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    tags: tuple[str, ...] = ()
    parent_version: int | None = None
    created_at: float = field(default_factory=time.time)
    #: version of the FeatureView the model was trained on (if any);
    #: promotion gates refuse to deploy against a mismatched live view.
    feature_fingerprint: str | None = None

    @property
    def identifier(self) -> str:
        return f"{self.name}:v{self.version}"


class ModelRegistry:
    """In-memory versioned model store."""

    #: the alias :meth:`deploy` maintains; serving routes stable traffic
    #: through it by default.
    DEPLOYED_ALIAS = "prod"

    def __init__(self) -> None:
        self._models: dict[str, list[ModelVersion]] = {}
        # name -> alias -> version; the "prod" alias is the deployed pointer
        self._aliases: dict[str, dict[str, int]] = {}

    def register(
        self,
        name: str,
        model: Any,
        params: dict[str, Any] | None = None,
        metrics: dict[str, float] | None = None,
        tags: tuple[str, ...] = (),
        parent_version: int | None = None,
        feature_fingerprint: str | None = None,
    ) -> ModelVersion:
        """Register a new version of ``name``; returns the version entry."""
        versions = self._models.setdefault(name, [])
        if parent_version is not None and not 1 <= parent_version <= len(versions):
            raise LifecycleError(
                f"parent version v{parent_version} of {name!r} does not exist"
            )
        entry = ModelVersion(
            name=name,
            version=len(versions) + 1,
            model=model,
            params=dict(params or {}),
            metrics=dict(metrics or {}),
            tags=tuple(tags),
            parent_version=parent_version,
            feature_fingerprint=feature_fingerprint,
        )
        versions.append(entry)
        return entry

    def get(self, name: str, version: int | None = None) -> ModelVersion:
        """A specific version, or the latest when ``version`` is None
        (versions are dense ``1..n``: ``v`` lives at index ``v - 1``)."""
        versions = self._models.get(name)
        if not versions:
            raise LifecycleError(f"no model named {name!r}")
        if version is None:
            return versions[-1]
        if not 1 <= version <= len(versions):
            raise LifecycleError(f"{name!r} has no version v{version}")
        return versions[version - 1]

    def versions(self, name: str) -> list[ModelVersion]:
        if name not in self._models:
            raise LifecycleError(f"no model named {name!r}")
        return list(self._models[name])

    def names(self) -> list[str]:
        return sorted(self._models)

    def lineage(self, name: str, version: int) -> list[ModelVersion]:
        """The ancestor chain of a version, oldest first."""
        chain: list[ModelVersion] = []
        current: int | None = version
        while current is not None:
            entry = self.get(name, current)
            chain.append(entry)
            current = entry.parent_version
        return list(reversed(chain))

    def best(self, name: str, metric: str) -> ModelVersion:
        """The version with the highest recorded value of ``metric``."""
        candidates = [v for v in self.versions(name) if metric in v.metrics]
        if not candidates:
            raise LifecycleError(
                f"no version of {name!r} records metric {metric!r}"
            )
        return max(candidates, key=lambda v: v.metrics[metric])

    # -- deployment staging ------------------------------------------------
    def deploy(self, name: str, version: int) -> None:
        """Promote ``version``: point the ``"prod"`` alias at it."""
        self.set_alias(name, self.DEPLOYED_ALIAS, version)

    def deployed(self, name: str) -> ModelVersion:
        version = self._aliases.get(name, {}).get(self.DEPLOYED_ALIAS)
        if version is None:
            raise LifecycleError(f"no deployed version of {name!r}")
        return self.get(name, version)

    # -- named aliases -------------------------------------------------------
    def set_alias(self, name: str, alias: str, version: int) -> None:
        """Point ``alias`` (e.g. ``"canary"``) at a version of ``name``."""
        if not alias:
            raise LifecycleError("alias must be a non-empty string")
        self.get(name, version)  # validates existence
        self._aliases.setdefault(name, {})[alias] = version

    def drop_alias(self, name: str, alias: str) -> None:
        if alias not in self._aliases.get(name, {}):
            raise LifecycleError(f"{name!r} has no alias {alias!r}")
        del self._aliases[name][alias]

    def aliases(self, name: str) -> dict[str, int]:
        """Alias -> version map for ``name`` (may be empty)."""
        self.versions(name)  # validates the model exists
        return dict(self._aliases.get(name, {}))

    def resolve(self, name: str, ref: int | str | None = None) -> ModelVersion:
        """Resolve a version reference: an int version, an alias string,
        or ``None`` for the latest registered version."""
        if ref is None or isinstance(ref, int):
            return self.get(name, ref)
        alias_map = self._aliases.get(name, {})
        if ref not in alias_map:
            raise LifecycleError(f"{name!r} has no alias {ref!r}")
        return self.get(name, alias_map[ref])

    # -- persistence ---------------------------------------------------------
    def save(self, path) -> None:
        """Persist the registry to a JSON file through
        :func:`repro.persist.write_atomic`: atomic, fsynced, and headed by
        a line carrying the schema and the payload's CRC32 and length.

        Models of serializable estimator classes are embedded (see
        :mod:`repro.lifecycle.serialize`); other model objects are stored
        as ``null`` with their metadata intact, each one counted as
        ``lifecycle.registry.models_not_persisted``.
        """
        from .serialize import dumps_model

        entries = []
        for name in self.names():
            for v in self.versions(name):
                try:
                    model_json = dumps_model(v.model)
                except LifecycleError:
                    model_json = None
                    get_registry().inc("lifecycle.registry.models_not_persisted")
                entries.append(
                    {
                        "name": v.name,
                        "version": v.version,
                        "model": model_json,
                        "params": v.params,
                        "metrics": v.metrics,
                        "tags": list(v.tags),
                        "parent_version": v.parent_version,
                        "created_at": v.created_at,
                        "feature_fingerprint": v.feature_fingerprint,
                    }
                )
        payload = {
            "versions": entries,
            "aliases": {k: dict(v) for k, v in self._aliases.items() if v},
        }
        write_atomic(
            path, json.dumps(payload).encode("utf-8"), REGISTRY_SCHEMA,
            error_cls=LifecycleError, what="registry file",
            tmp_prefix=".registry-",
        )

    @classmethod
    def load(cls, path) -> "ModelRegistry":
        """Restore a registry saved with :meth:`save`. A missing header, a
        schema mismatch, a truncated payload or a failed checksum raises
        :class:`LifecycleError` naming the path."""
        from .serialize import loads_model

        _, raw = read_verified(
            path, REGISTRY_SCHEMA, error_cls=LifecycleError, what="registry file"
        )
        registry = cls()
        where = "the payload"
        try:
            payload = json.loads(raw)
            where = '"versions"'
            entries = sorted(
                payload.get("versions", []),
                key=lambda e: (e["name"], e["version"]),
            )
            for entry in entries:
                where = f"version {entry['version']!r} of {entry['name']!r}"
                model = (
                    loads_model(entry["model"])
                    if entry["model"] is not None
                    else None
                )
                version = ModelVersion(
                    name=entry["name"],
                    version=entry["version"],
                    model=model,
                    params=entry["params"],
                    metrics=entry["metrics"],
                    tags=tuple(entry["tags"]),
                    parent_version=entry["parent_version"],
                    created_at=entry["created_at"],
                    feature_fingerprint=entry["feature_fingerprint"],
                )
                registry._models.setdefault(entry["name"], []).append(version)
            where = '"aliases"'
            registry._aliases = {
                name: {alias: int(v) for alias, v in aliases.items()}
                for name, aliases in payload.get("aliases", {}).items()
            }
        except LifecycleError as exc:
            # a model entry this build cannot rebuild, e.g. a class it
            # no longer has
            raise LifecycleError(
                f"registry file {path} cannot be loaded at {where}: {exc}"
            ) from exc
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # a checksummed payload that is not a registry: written by
            # something else
            raise LifecycleError(
                f"registry file {path} is structurally broken at {where}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return registry
