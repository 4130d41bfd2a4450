"""The multi-tenant schema registry: named, versioned, quota-bounded.

:class:`~repro.engine.session.SchemaSession` speaks fingerprints — opaque
content hashes with no notion of *which* schema a client meant, who owns
it, or how it evolved.  The registry is the naming layer above it:

* every schema lives at ``(tenant, name)`` and accumulates a **version
  history** — each :meth:`SchemaRegistry.put` of changed source appends a
  :class:`SchemaVersion` (monotonic number, source, fingerprint,
  timestamp) and revalidates it through :meth:`SchemaSession.update
  <repro.engine.session.SchemaSession.update>`, so consecutive versions
  pay only for their diff (see :mod:`repro.engine.delta`);
* **quotas** bound each tenant: schema count, per-source and total stored
  bytes, and in-flight revalidations — breaches raise the typed
  :class:`~repro.core.errors.RegistryQuotaError` /
  :class:`~repro.core.errors.RegistrySizeError` the HTTP layer renders as
  429 / 413;
* version histories are **pruned** to ``max_versions_per_schema``, except
  versions a client **pinned** — a pinned version survives pruning
  indefinitely (and blocks it: when every prunable version is pinned, the
  next put is refused rather than silently unbounded);
* ``name@version`` **references** (:meth:`SchemaRegistry.resolve`) give
  query endpoints a stable address, so a request can say *what* to query
  without shipping the schema text.

The registry is deliberately in-memory: its durable complement is the
fingerprint-keyed :class:`~repro.engine.artifact.ArtifactCache` underneath
the session, which survives restarts and makes re-``put`` of a known
version cheap.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

from ..core.errors import (RegistryError, RegistryNotFound,
                           RegistryQuotaError, RegistrySizeError)
from ..engine.config import EngineConfig
from ..engine.session import SchemaSession, schema_fingerprint
from ..obs.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.delta import RevalidationReport
    from ..reasoner.satisfiability import Reasoner

__all__ = ["RegistryConfig", "SchemaRegistry", "SchemaVersion"]

#: Schema and tenant names: an identifier-ish token, no ``@`` (reserved
#: for version references) and no path separators (names appear in URLs).
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]{0,127}$")


def _check_name(kind: str, value: str) -> str:
    if not isinstance(value, str) or not _NAME_RE.match(value):
        raise RegistryError(
            f"invalid {kind} {value!r}: expected a token matching "
            f"[A-Za-z_][A-Za-z0-9_.-]* (max 128 chars)")
    return value


@dataclass(frozen=True)
class RegistryConfig:
    """Per-tenant quota knobs (one config governs every tenant alike)."""

    #: Distinct schema names one tenant may hold.
    max_schemas_per_tenant: int = 64
    #: Version-history depth per schema; older unpinned versions are
    #: pruned past this.
    max_versions_per_schema: int = 16
    #: Size gate for one schema source, in bytes of UTF-8.
    max_schema_source_bytes: int = 256 * 1024
    #: Size gate for a tenant's total stored source bytes, all versions.
    max_total_source_bytes: int = 4 * 1024 * 1024
    #: Concurrent revalidations one tenant may have in flight; excess puts
    #: are refused (429), not queued — the caller owns the retry policy.
    max_inflight_revalidations: int = 4
    #: Tenant used when a caller does not name one.
    default_tenant: str = "default"


@dataclass(frozen=True)
class SchemaVersion:
    """One immutable entry of a schema's version history."""

    tenant: str
    name: str
    version: int
    source: str
    fingerprint: str
    created_at: float
    pinned: bool = False
    #: The revalidation that admitted this version, as reported JSON
    #: (None for the pre-registry seed of an entry, never for puts).
    revalidation: Optional[dict] = field(default=None, compare=False)

    @property
    def ref(self) -> str:
        """The ``name@version`` reference addressing exactly this entry."""
        return f"{self.name}@{self.version}"

    def summary(self) -> dict:
        """The JSON shape the HTTP layer and CLI render."""
        return {
            "tenant": self.tenant,
            "name": self.name,
            "version": self.version,
            "ref": self.ref,
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "pinned": self.pinned,
            "source_bytes": len(self.source.encode("utf-8")),
        }


class SchemaRegistry:
    """Named, versioned schemas for one fleet of tenants.

    Thread-safe: the history map and quota counters share one lock, and
    revalidation (the expensive part) runs *outside* it, guarded by the
    in-flight admission counter — so concurrent puts of different schemas
    overlap, while a tenant flooding puts is refused at
    ``max_inflight_revalidations``.

    >>> registry = SchemaRegistry(SchemaSession())
    >>> version, report = registry.put("inventory", "class A endclass")
    >>> registry.resolve("inventory@1").fingerprint == version.fingerprint
    True
    """

    def __init__(self, session: Optional[SchemaSession] = None,
                 config: Optional[RegistryConfig] = None, *,
                 engine_config: Optional[EngineConfig] = None):
        self.session = session if session is not None else SchemaSession(
            engine_config)
        self.config = config if config is not None else RegistryConfig()
        self._entries: dict[tuple[str, str], list[SchemaVersion]] = {}
        self._inflight: dict[str, int] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, name: str, source: str, *,
            tenant: Optional[str] = None
            ) -> "tuple[SchemaVersion, RevalidationReport]":
        """Store (or revise) ``name`` and revalidate the new version.

        Identical source (by canonical fingerprint) to the latest version
        is **deduplicated**: no new version number is minted, and the
        returned report's mode is ``"unchanged"``.  A genuinely new
        version diffs against its predecessor through
        :meth:`SchemaSession.update
        <repro.engine.session.SchemaSession.update>`, so only the edited
        clusters are rebuilt; the report itemizes the reuse and is also
        stored on the returned :class:`SchemaVersion`.
        """
        tenant = _check_name("tenant", tenant or self.config.default_tenant)
        _check_name("schema name", name)
        if not isinstance(source, str) or not source.strip():
            raise RegistryError(f"schema {name!r} needs non-empty source")
        source_bytes = len(source.encode("utf-8"))
        if source_bytes > self.config.max_schema_source_bytes:
            raise RegistrySizeError(
                f"schema {name!r} is {source_bytes} bytes; the per-schema "
                f"limit is {self.config.max_schema_source_bytes}")
        key = (tenant, name)
        with self._lock:
            history = self._entries.get(key)
            prev = history[-1] if history else None
            self._admit(tenant, name, prev, source_bytes)
            self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        try:
            # Revalidate outside the lock: parsing + delta rebuild are the
            # expensive part, and puts of other schemas need not wait.
            fingerprint = schema_fingerprint(source)
            if prev is not None and prev.fingerprint == fingerprint:
                from ..engine.delta import RevalidationReport

                current_tracer().add("registry.put_deduped")
                return prev, RevalidationReport(
                    mode="unchanged", fingerprint_old=prev.fingerprint,
                    fingerprint_new=fingerprint)
            _, report = self.session.update(
                prev.fingerprint if prev is not None else None, source)
        finally:
            with self._lock:
                self._inflight[tenant] -= 1
        with self._lock:
            # Re-read: a concurrent put may have appended meanwhile; the
            # version number must still come out monotonic.
            history = self._entries.setdefault(key, [])
            number = history[-1].version + 1 if history else 1
            entry = SchemaVersion(
                tenant=tenant, name=name, version=number, source=source,
                fingerprint=fingerprint, created_at=time.time(),
                revalidation=report.to_json())
            history.append(entry)
            self._prune(key)
            tracer = current_tracer()
            tracer.add("registry.put")
            tracer.gauge(f"registry.schemas.{tenant}",
                         self._schema_count(tenant))
        return entry, report

    def _admit(self, tenant: str, name: str, prev: Optional[SchemaVersion],
               source_bytes: int) -> None:
        """Quota gate for one put (caller holds the lock)."""
        cfg = self.config
        if prev is None and self._schema_count(tenant) >= \
                cfg.max_schemas_per_tenant:
            raise RegistryQuotaError(
                f"tenant {tenant!r} already holds "
                f"{cfg.max_schemas_per_tenant} schemas; delete one before "
                f"adding {name!r}")
        if self._total_bytes(tenant) + source_bytes > \
                cfg.max_total_source_bytes:
            raise RegistrySizeError(
                f"storing {name!r} would push tenant {tenant!r} past its "
                f"total source budget of {cfg.max_total_source_bytes} bytes")
        if self._inflight.get(tenant, 0) >= cfg.max_inflight_revalidations:
            raise RegistryQuotaError(
                f"tenant {tenant!r} has {cfg.max_inflight_revalidations} "
                f"revalidations in flight; retry when one completes")

    def _prune(self, key: tuple[str, str]) -> None:
        """Trim the history at ``key`` to the configured depth.

        Pinned versions never leave; when pins alone exceed the depth the
        put that got us here is rolled back and refused, so a tenant
        cannot grow unbounded history by pinning everything.
        """
        history = self._entries[key]
        limit = self.config.max_versions_per_schema
        while len(history) > limit:
            prunable = next(
                (i for i, v in enumerate(history[:-1]) if not v.pinned),
                None)
            if prunable is None:
                history.pop()  # roll back the just-appended version
                raise RegistryQuotaError(
                    f"schema {key[1]!r} has {limit} pinned versions; "
                    f"unpin one before adding more")
            dropped = history.pop(prunable)
            current_tracer().add("registry.pruned")
            self.session.invalidate(dropped.source)

    def pin(self, name: str, version: int, *, tenant: Optional[str] = None,
            pinned: bool = True) -> SchemaVersion:
        """Pin (or unpin) one version against history pruning."""
        tenant = tenant or self.config.default_tenant
        with self._lock:
            history = self._history(tenant, name)
            for i, entry in enumerate(history):
                if entry.version == version:
                    history[i] = replace(entry, pinned=pinned)
                    current_tracer().add("registry.pin")
                    return history[i]
        raise RegistryNotFound(
            f"schema {name!r} has no version {version} for tenant {tenant!r}")

    def delete(self, name: str, *, tenant: Optional[str] = None,
               version: Optional[int] = None,
               drop_artifacts: bool = False) -> int:
        """Delete a whole schema, or one version of it.

        Returns the number of versions removed.  The session's warm
        pipelines for the removed sources are invalidated; with
        ``drop_artifacts=True`` their on-disk artifacts go too (the
        default keeps them — a re-put of known source then revalidates
        nearly for free).
        """
        tenant = tenant or self.config.default_tenant
        with self._lock:
            history = self._history(tenant, name)
            if version is None:
                removed = list(history)
                del self._entries[(tenant, name)]
            else:
                removed = [v for v in history if v.version == version]
                if not removed:
                    raise RegistryNotFound(
                        f"schema {name!r} has no version {version} for "
                        f"tenant {tenant!r}")
                history.remove(removed[0])
                if not history:
                    del self._entries[(tenant, name)]
            tracer = current_tracer()
            tracer.add("registry.delete", len(removed))
            tracer.gauge(f"registry.schemas.{tenant}",
                         self._schema_count(tenant))
        for entry in removed:
            self.session.invalidate(entry.source,
                                    drop_artifacts=drop_artifacts)
        return len(removed)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, name: str, *, tenant: Optional[str] = None,
            version: Optional[int] = None) -> SchemaVersion:
        """The named version, or the latest when ``version`` is None."""
        tenant = tenant or self.config.default_tenant
        with self._lock:
            history = self._history(tenant, name)
            if version is None:
                return history[-1]
            for entry in history:
                if entry.version == version:
                    return entry
        raise RegistryNotFound(
            f"schema {name!r} has no version {version} for tenant {tenant!r}")

    def resolve(self, ref: str, *,
                tenant: Optional[str] = None) -> SchemaVersion:
        """Resolve a ``name`` / ``name@version`` / ``name@latest`` ref."""
        if not isinstance(ref, str) or not ref:
            raise RegistryError(f"invalid schema ref {ref!r}")
        name, sep, suffix = ref.partition("@")
        if not sep or suffix == "latest":
            return self.get(name, tenant=tenant)
        try:
            version = int(suffix)
        except ValueError:
            raise RegistryError(
                f"invalid schema ref {ref!r}: the part after '@' must be "
                f"a version number or 'latest'") from None
        if version < 1:
            raise RegistryError(
                f"invalid schema ref {ref!r}: versions start at 1")
        return self.get(name, tenant=tenant, version=version)

    def reasoner(self, ref: str, *,
                 tenant: Optional[str] = None) -> "Reasoner":
        """The warm reasoner for a ref — the query-path entry point."""
        return self.session.reasoner(self.resolve(ref, tenant=tenant).source)

    def versions(self, name: str, *,
                 tenant: Optional[str] = None) -> list[SchemaVersion]:
        """The full (post-pruning) history, oldest first."""
        tenant = tenant or self.config.default_tenant
        with self._lock:
            return list(self._history(tenant, name))

    def list(self, *, tenant: Optional[str] = None) -> list[dict]:
        """Latest-version summaries for one tenant, sorted by name."""
        tenant = tenant or self.config.default_tenant
        with self._lock:
            rows = [history[-1].summary()
                    | {"versions": len(history),
                       "pinned_versions": sum(1 for v in history if v.pinned)}
                    for (owner, _), history in sorted(self._entries.items())
                    if owner == tenant]
        return rows

    def stats(self) -> dict:
        """Registry occupancy for ``/metrics``: per-tenant counts/bytes."""
        with self._lock:
            tenants = sorted({tenant for tenant, _ in self._entries})
            return {
                "schemas": sum(len(h) > 0 for h in self._entries.values()),
                "versions": sum(len(h) for h in self._entries.values()),
                "tenants": {
                    tenant: {
                        "schemas": self._schema_count(tenant),
                        "versions": sum(
                            len(h) for (owner, _), h in self._entries.items()
                            if owner == tenant),
                        "source_bytes": self._total_bytes(tenant),
                        "inflight_revalidations":
                            self._inflight.get(tenant, 0),
                    }
                    for tenant in tenants
                },
            }

    # ------------------------------------------------------------------
    # Internals (callers hold the lock)
    # ------------------------------------------------------------------
    def _history(self, tenant: str, name: str) -> list[SchemaVersion]:
        history = self._entries.get((tenant, name))
        if not history:
            raise RegistryNotFound(
                f"no schema named {name!r} for tenant {tenant!r}")
        return history

    def _schema_count(self, tenant: str) -> int:
        return sum(1 for owner, _ in self._entries if owner == tenant)

    def _total_bytes(self, tenant: str) -> int:
        return sum(len(v.source.encode("utf-8"))
                   for (owner, _), history in self._entries.items()
                   if owner == tenant for v in history)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: Union[str, tuple[str, str]]) -> bool:
        key = name if isinstance(name, tuple) else (
            self.config.default_tenant, name)
        with self._lock:
            return key in self._entries
