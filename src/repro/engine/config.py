"""One frozen configuration object for the whole reasoning engine.

Before the engine layer existed, pipeline knobs were threaded ad hoc:
``strategy`` and ``size_limit`` through ``Reasoner.__init__`` into
``build_expansion``, the LP backend hard-wired inside
``acceptable_support``, cache bounds as class attributes.  An
:class:`EngineConfig` gathers every knob into a single immutable value that
:class:`~repro.engine.pipeline.Pipeline`,
:class:`~repro.reasoner.satisfiability.Reasoner`, and
:class:`~repro.engine.session.SchemaSession` all share — one object to
construct, log, and compare.

Being frozen (and hashable) it can key caches and travel between sessions
without defensive copying; :meth:`EngineConfig.replace` derives variants.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Optional

from ..core.errors import ReasoningError

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Every knob of the two-phase reasoning pipeline, in one place.

    Parameters
    ----------
    strategy:
        Compound-class enumeration strategy — ``"auto"`` (default),
        ``"naive"``, ``"strategic"``, or ``"hierarchy"``.
    size_limit:
        Optional guard on the expansion size; exceeding it raises
        :class:`~repro.core.errors.ReasoningError` instead of running out
        of memory on adversarial schemas.
    lp_backend:
        LP backend answering the max-support rounds: a registered name
        (``"auto"``, ``"exact-sparse"``, ``"float-fallback"`` — see
        :mod:`repro.linear.backends`) or an
        :class:`~repro.linear.backends.LpBackend` instance.
    incremental_augmented:
        Reuse the compound classes of clusters untouched by a query class
        when answering augmented (cross-cluster) queries.
    use_propagation / merge_columns:
        The two support-computation optimizations; disabled only by the
        ablation benchmarks, never changing verdicts.
    augmented_cache_limit:
        Bound on the per-reasoner memoized formula-verdict cache.
    session_cache_limit:
        Bound on the per-session LRU of warm reasoner pipelines.
    artifact_dir:
        Directory of the fingerprint-keyed
        :class:`~repro.engine.artifact.ArtifactCache` of precompiled
        pipeline snapshots; ``None`` (the library default) leaves disk
        caching off.  The CLI defaults it to
        :func:`~repro.engine.artifact.default_artifact_dir`
        (``~/.cache/repro``).  Excluded from equality/hashing: the cache
        changes cold-start cost, never verdicts.

    Tracing is not a config knob: entry points install a
    :class:`~repro.obs.tracer.Tracer` with
    :func:`~repro.obs.tracer.use_tracer` around the work they trace.
    """

    strategy: str = "auto"
    size_limit: Optional[int] = None
    lp_backend: str = "auto"
    incremental_augmented: bool = True
    use_propagation: bool = True
    merge_columns: bool = True
    augmented_cache_limit: int = 256
    session_cache_limit: int = 32
    artifact_dir: Optional[str] = field(default=None, compare=False)

    #: The recognized enumeration strategies (see ``repro.expansion``).
    STRATEGIES: ClassVar[tuple[str, ...]] = (
        "auto", "naive", "strategic", "hierarchy")

    def __post_init__(self) -> None:
        if self.strategy not in self.STRATEGIES:
            raise ReasoningError(
                f"unknown enumeration strategy {self.strategy!r}; "
                f"expected one of {', '.join(self.STRATEGIES)}")
        if self.size_limit is not None and self.size_limit < 1:
            raise ReasoningError(
                f"size_limit must be positive, got {self.size_limit}")
        if self.augmented_cache_limit < 1:
            raise ReasoningError(
                "augmented_cache_limit must be positive, got "
                f"{self.augmented_cache_limit}")
        if self.session_cache_limit < 1:
            raise ReasoningError(
                "session_cache_limit must be positive, got "
                f"{self.session_cache_limit}")
        # Resolving the backend validates the name against the registry
        # (raising LinearSystemError on an unknown one) without importing
        # the linear layer at module-import time.
        from ..linear.backends import get_backend

        get_backend(self.lp_backend)
        if self.artifact_dir is not None:
            if not isinstance(self.artifact_dir, (str, os.PathLike)):
                raise ReasoningError(
                    f"artifact_dir must be a path or None, "
                    f"got {self.artifact_dir!r}")
            # Normalize to a plain string so the frozen value pickles
            # identically across processes and renders in as_dict().
            object.__setattr__(self, "artifact_dir",
                               os.fspath(self.artifact_dir))

    def replace(self, **overrides) -> "EngineConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        """A plain-dict rendering (stable key order) for logs and JSON."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}
