"""The staged reasoning pipeline: tables → expansion → Ψ_S → support.

The paper's two-phase procedure factors into four artifacts, each a pure
function of the schema, the :class:`~repro.engine.config.EngineConfig`, and
the previous artifact:

====================  ==================================================
stage                 artifact
====================  ==================================================
``tables``            preselection tables (inclusion/disjointness, §4.3)
``expansion``         the expansion ``S̄`` (Definition 3.1)
``system``            the disequation system ``Ψ_S`` (Theorem 3.3)
``support``           the maximal acceptable support + witness
====================  ==================================================

:class:`Pipeline` makes each stage an explicit, lazily built, cached, and
timed artifact via the :class:`PipelineStage` descriptor: first access
resolves the stage's prerequisites (outside its own timing window), builds
the artifact inside a named :class:`~repro.core.timing.StageTimer` stage,
and caches it for the pipeline's lifetime.  A pipeline is append-only —
artifacts are never invalidated; build a new pipeline for a new schema or
config (sessions handle the caching of whole pipelines).

Schema-level derived structures that several consumers share — the clusters
of ``G_S`` and the class-to-cluster map — live here too, as does the one
incremental path, :meth:`Pipeline.recompile_from`: a pipeline for an edited
schema (a registry edit, or the schema plus one query class) seeded from
the stage products of the previous version's pipeline.  Whether a schema
is a §4.4 hierarchy is not stored here: Phase 1 records its route on
``expansion.strategy``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from ..core.schema import Schema
from ..core.timing import StageTimer
from ..expansion.expansion import Expansion, build_expansion
from ..expansion.tables import SchemaTables, build_tables
from ..linear.support import SupportResult, acceptable_support
from ..linear.system import PsiSystem, build_system
from ..obs.tracer import current_tracer
from .config import EngineConfig
from .stats import PipelineStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .artifact import CompiledSchema

__all__ = ["Pipeline", "PipelineStage"]

#: A stage prerequisite: a stage name, or a callable mapping the pipeline to
#: a stage name (or None to skip) — for config-dependent prerequisites.
Prerequisite = Union[str, Callable[["Pipeline"], Optional[str]]]


class PipelineStage:
    """Descriptor: one lazily built, cached, timed pipeline artifact.

    ``requires`` names the stages to resolve *before* this stage's timing
    window opens, so per-stage readings never nest (the expansion reading
    excludes the tables build it depends on).  Entries may be callables for
    prerequisites that depend on the configuration.
    """

    def __init__(self, *requires: Prerequisite):
        self._requires = requires

    def __call__(self, build):
        self._build = build
        self.__doc__ = build.__doc__
        return self

    def __set_name__(self, owner, name: str) -> None:
        self._name = name

    def __get__(self, pipeline: Optional["Pipeline"], owner=None):
        if pipeline is None:
            return self
        artifacts = pipeline._artifacts
        if self._name not in artifacts:
            for requirement in self._requires:
                if callable(requirement):
                    requirement = requirement(pipeline)
                if requirement is not None:
                    getattr(pipeline, requirement)
            with current_tracer().span(f"pipeline.{self._name}"):
                with pipeline.timer.stage(self._name):
                    artifacts[self._name] = self._build(pipeline)
            # Outside the timing window: persistence hooks must not count
            # as stage cost.
            pipeline._stage_built(self._name)
        return artifacts[self._name]


def _expansion_needs_tables(pipeline: "Pipeline") -> Optional[str]:
    return "tables" if pipeline.config.strategy != "naive" else None


class Pipeline:
    """The staged decision procedure for one schema under one config.

    All stages are lazy: constructing a pipeline costs nothing, and each
    artifact is built on first access (``pipeline.support`` pulls the whole
    chain).  ``pipeline.timer`` accumulates per-stage wall-clock readings;
    spans and counters go to the ambient tracer of the call that builds a
    stage (:func:`~repro.obs.tracer.current_tracer`).
    """

    #: Stage names in build order (artifact attributes on instances).
    STAGES = ("tables", "expansion", "system", "support")

    def __init__(self, schema: Schema, config: Optional[EngineConfig] = None,
                 *, timer: Optional[StageTimer] = None):
        self.schema = schema
        self.config = config if config is not None else EngineConfig()
        self.timer = timer if timer is not None else StageTimer()
        self._artifacts: dict[str, object] = {}
        # Fired once, with this pipeline, right after the `system` stage
        # builds — the hook sessions and workers use to persist a
        # CompiledSchema snapshot the moment Phase 1/2 completes, without
        # eagerly forcing any stage themselves (an eager build would
        # escape the caller's per-query budget scope).
        self.on_system_built: Optional[Callable[["Pipeline"], None]] = None
        # Seeds of the incremental path (see recompile_from): a
        # partial-expansion plan and an optional support-block graft, each
        # dropped once its stage has built, and the reuse accounting
        # surfaced in RevalidationReports.
        self._expansion_seed = None
        self._support_seed = None
        self.delta_stats: dict = {}
        # The query-rewriting closure (built on demand by closure_index).
        self._closure_index = None
        # Schema-level derived structures, shared by several consumers.
        self._clusters: Optional[list[frozenset]] = None
        self._cluster_map: Optional[dict] = None

    def built_stages(self) -> tuple[str, ...]:
        """The stages whose artifacts exist already (in build order)."""
        return tuple(name for name in self.STAGES if name in self._artifacts)

    def _stage_built(self, name: str) -> None:
        """Stage-completion dispatch (called by :class:`PipelineStage`).

        A delta seed goes once the stage it feeds has built, so a pipeline
        never pins its predecessor's expansion or ``Ψ_S``: a long-running
        session's chain of versions stays one version deep.
        """
        if name == "expansion":
            self._expansion_seed = None
        elif name == "support":
            self._support_seed = None
        elif name == "system" and self.on_system_built is not None:
            callback, self.on_system_built = self.on_system_built, None
            callback(self)

    # ------------------------------------------------------------------
    # Compiled snapshots (precomputed Phase-1/Phase-2 artifacts)
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledSchema":
        """A frozen, picklable snapshot of this pipeline's Phase-1/Phase-2
        products: tables, expansion (with its Phase-1 route), ``Ψ_S``, and
        the cluster partition (building any that are missing), plus the
        support when it is already solved.  The maximal support is unique,
        so one snapshot serves every LP backend.
        """
        from .artifact import (ARTIFACT_SCHEMA_VERSION, CompiledSchema,
                               config_fingerprint)
        from .session import schema_fingerprint

        tables = self.tables
        expansion = self.expansion
        system = self.system
        current_tracer().add("artifact.build")
        return CompiledSchema(
            schema_version=ARTIFACT_SCHEMA_VERSION,
            fingerprint=schema_fingerprint(self.schema),
            config_fingerprint=config_fingerprint(self.config),
            config=self.config,
            schema=self.schema,
            tables=tables,
            expansion=expansion,
            system=system,
            clusters=(tuple(self.clusters())
                      if self.config.strategy != "naive" else None),
            # The support rides along only when it is already solved: the
            # persist-on-system-built hook must never force Phase 2, but a
            # fully answered pipeline's verdicts are worth keeping.
            support=self._artifacts.get("support"),
            # Likewise the closure: a satisfiability-only compile never
            # pays for it.
            closure=self._closure_index,
        )

    @classmethod
    def from_artifact(cls, artifact: "CompiledSchema",
                      config: Optional[EngineConfig] = None, *,
                      timer: Optional[StageTimer] = None) -> "Pipeline":
        """A pipeline rehydrated from a compiled snapshot.

        The tables/expansion/system stages are pre-populated from the
        snapshot, so the first query pays only the support computation.
        ``config`` defaults to the snapshot's own; a config whose
        enumeration-shaping knobs differ from the snapshot's raises
        :class:`~repro.core.errors.ReasoningError` (callers going through
        :class:`~repro.engine.artifact.ArtifactCache` never see this — the
        cache keys on the config fingerprint).
        """
        from ..core.errors import ReasoningError
        from .artifact import (ARTIFACT_SCHEMA_VERSION, CompiledSchema,
                               config_fingerprint)

        if not isinstance(artifact, CompiledSchema):
            raise ReasoningError(
                f"expected a CompiledSchema, got {type(artifact).__name__}")
        if artifact.schema_version != ARTIFACT_SCHEMA_VERSION:
            raise ReasoningError(
                f"artifact schema version {artifact.schema_version} does "
                f"not match this engine's {ARTIFACT_SCHEMA_VERSION}")
        config = config if config is not None else artifact.config
        if config_fingerprint(config) != artifact.config_fingerprint:
            raise ReasoningError(
                "artifact was compiled under an incompatible engine "
                "config (strategy/size_limit mismatch)")
        pipeline = cls(artifact.schema, config, timer=timer)
        pipeline._artifacts["tables"] = artifact.tables
        pipeline._artifacts["expansion"] = artifact.expansion
        pipeline._artifacts["system"] = artifact.system
        if artifact.support is not None:
            # Stored verdicts are backend-independent (the maximal support
            # is unique), so rehydration may skip Phase 2 entirely.
            pipeline._artifacts["support"] = artifact.support
        if artifact.clusters is not None:
            pipeline._clusters = list(artifact.clusters)
        pipeline._closure_index = artifact.closure
        return pipeline

    @classmethod
    def recompile_from(cls, prev: "Pipeline", delta,
                       config: Optional[EngineConfig] = None, *,
                       timer: Optional[StageTimer] = None) -> "Pipeline":
        """A pipeline for ``delta.new`` that reuses everything ``prev``
        (the previous version's pipeline) has built and can still vouch
        for.

        The one incremental path, for registry edits and for augmented
        queries (the schema plus one query class) alike.  ``prev`` is a
        live pipeline, or :meth:`from_artifact` of a stored snapshot, which
        checks the snapshot's version and config.  Untouched preselection
        table rows are kept; clusters of the new schema that match the
        previous partition verbatim and contain no dirty class keep their
        compound classes and expansion rows; and, when ``prev`` has solved
        its support, untouched ``Ψ_S`` blocks keep their verdicts.  Only
        what the edit touched pays.  No stage of ``prev`` is forced.
        Falls back to a cold pipeline — same verdicts, no reuse — when the
        delta path does not apply (naive strategy or route, a new §4.4
        hierarchy, ``prev`` without an expansion).  ``config`` defaults to
        ``prev``'s.

        An empty delta shares ``prev``'s stage products.  Reuse accounting
        lands in ``pipeline.delta_stats`` and the ``registry.reuse`` /
        ``registry.rebuilt`` tracer counters.
        """
        from ..core.errors import ReasoningError
        from .delta import seed_delta

        if delta.old is not prev.schema and delta.old != prev.schema:
            raise ReasoningError(
                "delta.old does not match the schema of the previous "
                "pipeline")
        config = config if config is not None else prev.config
        pipeline = cls(delta.new, config, timer=timer)
        if delta.is_empty():
            pipeline._artifacts.update(prev._artifacts)
            pipeline._clusters = prev._clusters
            pipeline._closure_index = prev._closure_index
            pipeline.delta_stats["mode"] = "unchanged"
        elif not seed_delta(pipeline, prev, delta):
            pipeline.delta_stats["mode"] = "fresh"
        return pipeline

    # ------------------------------------------------------------------
    # The four artifacts
    # ------------------------------------------------------------------
    @PipelineStage()
    def tables(self) -> SchemaTables:
        """The preselection tables of the schema, built once and shared by
        every pipeline stage (enumeration, clusters, explanations)."""
        return build_tables(self.schema)

    @PipelineStage(_expansion_needs_tables)
    def expansion(self) -> Expansion:
        """The expansion ``S̄``: compound classes, attributes, relations,
        and the merged ``Natt``/``Nrel`` entries (copying the rows of
        untouched clusters when the delta path seeded it)."""
        tables = None
        if _expansion_needs_tables(self) is not None:
            tables = self.tables  # prebuilt by the prerequisite hook
        return build_expansion(
            self.schema, self.config.strategy,
            size_limit=self.config.size_limit, tables=tables,
            seed=self._expansion_seed)

    @PipelineStage("expansion")
    def system(self) -> PsiSystem:
        """The homogeneous disequation system ``Ψ_S`` over the expansion."""
        return build_system(self.expansion)

    @PipelineStage("system")
    def support(self) -> SupportResult:
        """The maximal acceptable support of ``Ψ_S`` plus a witness,
        computed by the configured LP backend (grafting verdicts of
        untouched blocks when the delta path seeded them)."""
        seed = self._support_seed
        if seed is not None:
            from .delta import merge_support

            return merge_support(
                self.system, seed,
                backend=self.config.lp_backend, stats=self.delta_stats)
        return acceptable_support(self.system, backend=self.config.lp_backend)

    # ------------------------------------------------------------------
    # Query-rewriting closure
    # ------------------------------------------------------------------
    def closure_index(self):
        """The query-rewriting :class:`~repro.qa.closure.ClosureIndex` of
        this schema, built on first use (forcing the support stage) and
        cached for the pipeline's lifetime.  Rides inside
        :meth:`compile` snapshots once built, so artifact-cache hits skip
        the classification entirely."""
        if self._closure_index is None:
            from ..qa.closure import closure_for_pipeline

            self._closure_index = closure_for_pipeline(self)
        return self._closure_index

    # ------------------------------------------------------------------
    # Shared schema-level structures
    # ------------------------------------------------------------------
    def clusters(self) -> list[frozenset]:
        """The clusters of ``G_S`` (Theorem 4.6), computed once over the
        shared preselection tables and cached."""
        if self._clusters is None:
            from ..expansion.graph import clusters

            self._clusters = clusters(self.schema, self.tables)
        return self._clusters

    def cluster_of(self) -> dict:
        """Class name → index of its cluster in :meth:`clusters`."""
        if self._cluster_map is None:
            mapping: dict = {}
            for index, component in enumerate(self.clusters()):
                for name in component:
                    mapping[name] = index
            self._cluster_map = mapping
        return self._cluster_map

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> PipelineStats:
        """Pipeline size measurements (builds any missing stage), plus the
        per-stage wall-clock readings of :attr:`timer`, as a typed
        :class:`~repro.engine.stats.PipelineStats` payload."""
        return PipelineStats(
            classes=len(self.schema.class_symbols),
            schema_size=self.schema.syntactic_size(),
            compound_classes=len(self.expansion.compound_classes),
            expansion_size=self.expansion.size(),
            psi_unknowns=self.system.n_unknowns(),
            psi_constraints=self.system.n_constraints(),
            psi_size=self.system.size(),
            lp_rounds=self.support.rounds,
            supported=len(self.support.support),
            lp_backend=self.support.backend_used,
            strategy=self.expansion.strategy,
            timings=self.timer.readings(),
        )
