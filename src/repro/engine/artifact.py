"""Precompiled pipeline artifacts: snapshot, fingerprint, persist, reload.

The Phase-1/Phase-2 products of a :class:`~repro.engine.pipeline.Pipeline`
— the preselection tables, the expansion ``S̄`` (Definition 3.1), and the
disequation system ``Ψ_S`` (Theorem 3.3) — are pure functions of the schema
text and two :class:`~repro.engine.config.EngineConfig` knobs (``strategy``
and ``size_limit``).  Yet every process-pool worker and every cold CLI or
service start used to rebuild them from scratch, which is why the committed
parallel benchmarks showed process mode *losing* to serial.  This module is
the fix:

* :class:`CompiledSchema` — a frozen, picklable snapshot of those products
  plus the cluster/hierarchy metadata, versioned by
  :data:`ARTIFACT_SCHEMA_VERSION` and keyed by the schema fingerprint and
  :func:`config_fingerprint`;
* :class:`ArtifactCache` — a fingerprint-keyed disk cache of pickled
  snapshots (atomic writes, silent rebuild of corrupt or stale entries),
  the backing store behind :class:`~repro.engine.session.SchemaSession`
  misses and the worker cold path of
  :class:`~repro.engine.executor.BatchExecutor`.

Unpickling a snapshot is an order of magnitude cheaper than re-running
Phase 1, so a rehydrated pipeline skips straight to support solving.  The
support itself is deliberately *not* stored: it depends on the LP knobs
(``lp_backend``, ``use_propagation``, ``merge_columns``), so excluding it
lets every LP configuration share one artifact.

Cache failures never change verdicts: a missing, corrupt, truncated,
version-mismatched, or config-mismatched entry is counted
(``artifact.miss`` / ``artifact.stale``), discarded best-effort, and the
caller falls back to a fresh build.  Tracer counters: ``artifact.build``,
``artifact.save``, ``artifact.load``, ``artifact.hit``, ``artifact.miss``,
``artifact.stale``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ..obs.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.schema import Schema
    from ..expansion.expansion import Expansion
    from ..expansion.tables import SchemaTables
    from ..linear.support import SupportResult
    from ..linear.system import PsiSystem
    from ..qa.closure import ClosureIndex
    from .config import EngineConfig

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "CompiledSchema",
    "SupportSnapshot",
    "ArtifactCache",
    "config_fingerprint",
    "default_artifact_dir",
]

#: Version of the :class:`CompiledSchema` payload.  Bump on any change to
#: the snapshot fields *or* to the pickled shape of the stage products —
#: a loader finding a different version treats the entry as stale and
#: rebuilds from source.  v2 added the optional :class:`SupportSnapshot`
#: (support verdicts keyed by unknown, consumed by delta revalidation);
#: v3 added the optional query-rewriting
#: :class:`~repro.qa.closure.ClosureIndex`.
ARTIFACT_SCHEMA_VERSION = 3

#: Environment variable overriding the default artifact directory
#: (useful for tests and hermetic CI runs).
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"


def default_artifact_dir() -> str:
    """The default on-disk artifact directory.

    Resolution order: ``$REPRO_ARTIFACT_DIR``, then
    ``$XDG_CACHE_HOME/repro``, then ``~/.cache/repro``.
    """
    env = os.environ.get(ARTIFACT_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return str(base / "repro")


def config_fingerprint(config: "EngineConfig") -> str:
    """A short hash of the config knobs a snapshot depends on.

    Only ``strategy`` and ``size_limit`` shape the stored stage products
    (they steer the compound-class enumeration); the LP knobs, the cache
    bounds, and the tracing switch do not, so configs differing only in
    those share artifacts — e.g. the exact-sparse and float-fallback backends
    rehydrate from the same file.
    """
    material = (f"v{ARTIFACT_SCHEMA_VERSION}"
                f"|strategy={config.strategy}"
                f"|size_limit={config.size_limit}")
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SupportSnapshot:
    """Backend-agnostic support verdicts, keyed by *unknown object*.

    A :class:`~repro.linear.support.SupportResult` speaks in unknown
    indices of one concrete :class:`~repro.linear.system.PsiSystem`; the
    snapshot re-keys everything by the compound objects themselves, so the
    verdicts survive being carried into a *different* system whose indices
    diverged (the delta-revalidation path grafts untouched Ψ_S blocks from
    a previous schema version's system into the new one).

    The maximal acceptable support is unique and backend-independent (the
    differential suite pins exact-sparse and float-fallback to identical support
    sets), so storing it does not fragment the artifact cache per backend
    the way storing raw LP state would.
    """

    backend_used: str
    rounds: int
    #: Unknown objects inside the maximal acceptable support.
    supported: frozenset
    #: Witness values per unknown object (the full acceptable solution).
    values: tuple[tuple[object, Fraction], ...]
    #: Pin log re-keyed by unknown: ``(unknown, phase, reason, round)``.
    pins: tuple[tuple[object, str, str, int], ...]

    @classmethod
    def from_result(cls, result: "SupportResult") -> "SupportSnapshot":
        """Re-key a support result by unknown object."""
        unknowns = result.system.unknowns
        return cls(
            backend_used=result.backend_used,
            rounds=result.rounds,
            supported=frozenset(unknowns[i] for i in result.support),
            values=tuple((unknowns[i], value)
                         for i, value in sorted(result.solution.items())),
            pins=tuple((unknowns[e.index], e.phase, e.reason, e.round)
                       for e in result.pin_log),
        )

    def to_result(self, system: "PsiSystem") -> "SupportResult":
        """Rebuild a :class:`SupportResult` against ``system``.

        Only valid when ``system`` has exactly the unknowns this snapshot
        covers (the unchanged-schema rehydration path); partial grafts go
        through :func:`repro.engine.delta.merge_support` instead.
        """
        from ..linear.support import PinEvent, SupportResult

        return SupportResult(
            system=system,
            support=frozenset(system.index_of(u) for u in self.supported),
            solution={system.index_of(u): value for u, value in self.values},
            rounds=self.rounds,
            backend_used=self.backend_used,
            pin_log=tuple(PinEvent(system.index_of(u), phase, reason, rnd)
                          for u, phase, reason, rnd in self.pins),
        )


@dataclass(frozen=True)
class CompiledSchema:
    """A frozen, picklable snapshot of one schema's compiled pipeline.

    Produced by :meth:`Pipeline.compile
    <repro.engine.pipeline.Pipeline.compile>`; consumed by
    :meth:`Pipeline.from_artifact
    <repro.engine.pipeline.Pipeline.from_artifact>`, which pre-populates a
    fresh pipeline with the stored stage products so only the support
    computation remains.  ``fingerprint`` is the canonical schema hash
    (:func:`~repro.engine.session.schema_fingerprint`);
    ``config_fingerprint`` pins the enumeration-shaping knobs the snapshot
    was built under; ``config`` travels along so a snapshot is
    self-describing.
    """

    schema_version: int
    fingerprint: str
    config_fingerprint: str
    config: "EngineConfig"
    schema: "Schema"
    tables: "SchemaTables"
    expansion: "Expansion"
    system: "PsiSystem"
    clusters: Optional[tuple[frozenset, ...]]
    hierarchy_effective: Optional[bool]
    #: Support verdicts, present only when the support stage had been
    #: solved by compile() time.  Optional so snapshots stay shareable
    #: across LP backends (the support itself is backend-independent) and
    #: so the cheap on-system-built persist hook need not force Phase 2.
    support: Optional[SupportSnapshot] = None
    #: The query-rewriting implication closure, present only when it had
    #: been built by compile() time (the ``/v1/query`` path forces it; a
    #: satisfiability-only run never pays for it).  Optional with a None
    #: default so v2-shaped pickles of the same version would still load.
    closure: Optional["ClosureIndex"] = None

    def summary(self) -> dict:
        """A small JSON-able description (the ``repro compile`` line)."""
        return {
            "artifact_schema": self.schema_version,
            "fingerprint": self.fingerprint,
            "config_fingerprint": self.config_fingerprint,
            "classes": len(self.schema.class_symbols),
            "compound_classes": len(self.expansion.compound_classes),
            "psi_size": self.system.size(),
            "has_support": self.support is not None,
            "has_closure": self.closure is not None,
        }


class ArtifactCache:
    """A fingerprint-keyed disk cache of pickled :class:`CompiledSchema`.

    One file per ``(schema fingerprint, config fingerprint, artifact
    version)`` triple, so version bumps and config changes miss instead of
    colliding.  Writes are atomic (tempfile in the cache directory +
    ``os.replace``), so a concurrent reader sees either the old complete
    file or the new complete file, never a torn one.  Every disk failure —
    unwritable directory, corrupt pickle, racing unlink — degrades to a
    miss; the cache can slow a caller down, never give it a wrong verdict.
    """

    def __init__(self, directory: Union[str, os.PathLike]):
        self.directory = Path(os.fspath(directory)).expanduser()

    @classmethod
    def from_config(cls, config: "EngineConfig"
                    ) -> Optional["ArtifactCache"]:
        """The cache named by ``config.artifact_dir``, or None when the
        config leaves disk caching off."""
        if config.artifact_dir is None:
            return None
        return cls(config.artifact_dir)

    def path_for(self, fingerprint: str, config_fp: str) -> Path:
        """The cache file for one (schema, config) fingerprint pair."""
        return self.directory / (
            f"{fingerprint}.{config_fp}.v{ARTIFACT_SCHEMA_VERSION}.pkl")

    # ------------------------------------------------------------------
    def load(self, fingerprint: str,
             config: "EngineConfig") -> Optional[CompiledSchema]:
        """The stored snapshot for ``(fingerprint, config)``, or None.

        A missing file counts ``artifact.miss``; an unreadable, corrupt,
        or mismatched one counts ``artifact.stale`` and is discarded
        best-effort; a valid one counts ``artifact.hit`` and
        ``artifact.load``.
        """
        tracer = current_tracer()
        config_fp = config_fingerprint(config)
        path = self.path_for(fingerprint, config_fp)
        with tracer.span("artifact.load"):
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                tracer.add("artifact.miss")
                return None
            except OSError:
                tracer.add("artifact.miss")
                return None
            try:
                artifact = _loads_without_gc(data)
            except Exception:
                # Truncated write from a crashed process, a foreign file,
                # an unpicklable payload from a future version — rebuild.
                tracer.add("artifact.stale")
                self._discard(path)
                return None
        if (not isinstance(artifact, CompiledSchema)
                or artifact.schema_version != ARTIFACT_SCHEMA_VERSION
                or artifact.fingerprint != fingerprint
                or artifact.config_fingerprint != config_fp):
            tracer.add("artifact.stale")
            self._discard(path)
            return None
        tracer.add("artifact.hit")
        tracer.add("artifact.load")
        return artifact

    def store(self, artifact: CompiledSchema) -> bool:
        """Persist ``artifact`` atomically; False (never an exception) when
        the disk refuses."""
        try:
            payload = pickle.dumps(artifact,
                                   protocol=pickle.HIGHEST_PROTOCOL)
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.path_for(artifact.fingerprint,
                                 artifact.config_fingerprint)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), prefix=path.name + ".", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, TypeError):
            return False
        current_tracer().add("artifact.save")
        return True

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def discard_fingerprint(self, fingerprint: str) -> int:
        """Remove every stored entry for one schema fingerprint (any config
        fingerprint, any artifact version); returns the number unlinked.

        The explicit-invalidation companion of
        :meth:`SchemaSession.invalidate
        <repro.engine.session.SchemaSession.invalidate>`: without it a
        dropped warm pipeline would simply rehydrate from its stale pickle
        on the next miss.
        """
        return self._discard_matching(f"{fingerprint}.*.pkl")

    def clear(self) -> int:
        """Remove every stored artifact; returns the number unlinked."""
        return self._discard_matching("*.pkl")

    def _discard_matching(self, pattern: str) -> int:
        removed = 0
        try:
            paths = list(self.directory.glob(pattern))
        except OSError:
            return 0
        for path in paths:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            current_tracer().add("artifact.discard", removed)
        return removed


def _loads_without_gc(data: bytes):
    """``pickle.loads`` with the collector paused.

    Rehydrating a snapshot allocates one large object graph in a burst;
    generational GC passes triggered mid-burst cost more than the unpickle
    itself (and scan only objects that cannot yet be garbage).  Pausing
    collection around the load keeps rehydration an order of magnitude
    under a fresh Phase-1 build.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        return pickle.loads(data)
    finally:
        if enabled:
            gc.enable()


def _spawn_echo(value):
    """Importable identity helper for the spawn-context pickling tests:
    a spawn worker re-imports this module and resolves the function by
    qualified name, so round-tripping through it proves the argument and
    the return value both cross a spawn process boundary."""
    return value
