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
of ``G_S`` and the per-cluster compound-class grouping — live here too, as
do the *seeding* hooks of the incremental augmented-query optimization (a
seeded pipeline starts with prebuilt tables and precomputed compound
classes instead of cold stages).  Whether a schema is a §4.4 hierarchy is
not stored here: Phase 1 records its route on ``expansion.strategy``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from ..core.schema import Schema
from ..core.timing import StageTimer
from ..expansion.expansion import (Expansion, build_expansion,
                                   build_expansion_delta)
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
    if (pipeline.config.strategy != "naive"
            and pipeline._precomputed_classes is None):
        return "tables"
    return None


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
        # Seeds of the incremental augmented-query path (see seed_augmented).
        self._precomputed_classes: Optional[tuple] = None
        # Seeds of the diff-aware revalidation path (see recompile_from):
        # a partial-expansion plan, an optional support-block graft, and
        # the reuse accounting surfaced in RevalidationReports.
        self._expansion_delta = None
        self._support_seed = None
        self.delta_stats: dict = {}
        # The query-rewriting closure (built on demand by closure_index).
        self._closure_index = None
        # Schema-level derived structures, shared by several consumers.
        self._clusters: Optional[list[frozenset]] = None
        self._cluster_map: Optional[dict] = None
        self._cluster_compound_map: Optional[dict] = None

    def built_stages(self) -> tuple[str, ...]:
        """The stages whose artifacts exist already (in build order)."""
        return tuple(name for name in self.STAGES if name in self._artifacts)

    def _stage_built(self, name: str) -> None:
        """Stage-completion dispatch (called by :class:`PipelineStage`)."""
        if name == "system" and self.on_system_built is not None:
            callback, self.on_system_built = self.on_system_built, None
            callback(self)

    # ------------------------------------------------------------------
    # Compiled snapshots (precomputed Phase-1/Phase-2 artifacts)
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledSchema":
        """A frozen, picklable snapshot of this pipeline's Phase-1/Phase-2
        products: tables, expansion (with its Phase-1 route), ``Ψ_S``, and
        the cluster partition (building any that are missing).  The
        support is *not* included — a rehydrated pipeline recomputes it
        under its own LP configuration, so one snapshot serves every
        backend.
        """
        from .artifact import (ARTIFACT_SCHEMA_VERSION, CompiledSchema,
                               SupportSnapshot, config_fingerprint)
        from .session import schema_fingerprint

        tables = self.tables
        expansion = self.expansion
        system = self.system
        # The support rides along only when it is already solved: the
        # persist-on-system-built hook must never force Phase 2, but a
        # fully answered pipeline's verdicts are worth keeping — they are
        # what delta revalidation grafts into the next schema version.
        support = self._artifacts.get("support")
        snapshot = (SupportSnapshot.from_result(support)
                    if support is not None else None)
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
            support=snapshot,
            # Like the support: ride along only when already built — a
            # satisfiability-only compile never pays for the closure.
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
            pipeline._artifacts["support"] = artifact.support.to_result(
                artifact.system)
        if artifact.clusters is not None:
            pipeline._clusters = list(artifact.clusters)
        pipeline._closure_index = artifact.closure
        return pipeline

    @classmethod
    def recompile_from(cls, prev: "CompiledSchema", delta,
                       config: Optional[EngineConfig] = None, *,
                       timer: Optional[StageTimer] = None) -> "Pipeline":
        """A pipeline for ``delta.new`` that reuses everything ``prev``
        (the compiled previous version) can still vouch for.

        The diff-aware generalization of :meth:`seed_augmented`: clusters
        of the new schema that match the previous partition verbatim and
        contain no dirty class keep their enumerated compound classes,
        their expansion rows, and (when ``prev`` stored verdicts) their
        ``Ψ_S`` block supports; only touched clusters pay.  Falls back to
        a cold pipeline — same verdicts, no reuse — when the delta path
        does not apply (naive strategy, §4.4 hierarchies, cluster-less
        artifacts).  ``config`` defaults to the snapshot's own and must
        match its enumeration-shaping fingerprint, like
        :meth:`from_artifact`.

        An empty delta short-circuits to :meth:`from_artifact` (full
        reuse).  Reuse accounting lands in ``pipeline.delta_stats`` and
        the ``registry.reuse`` / ``registry.rebuilt`` tracer counters.
        """
        from ..core.errors import ReasoningError
        from .artifact import (ARTIFACT_SCHEMA_VERSION, CompiledSchema,
                               config_fingerprint)
        from .delta import seed_delta

        if not isinstance(prev, CompiledSchema):
            raise ReasoningError(
                f"expected a CompiledSchema, got {type(prev).__name__}")
        if prev.schema_version != ARTIFACT_SCHEMA_VERSION:
            raise ReasoningError(
                f"artifact schema version {prev.schema_version} does "
                f"not match this engine's {ARTIFACT_SCHEMA_VERSION}")
        config = config if config is not None else prev.config
        if config_fingerprint(config) != prev.config_fingerprint:
            raise ReasoningError(
                "previous artifact was compiled under an incompatible "
                "engine config (strategy/size_limit mismatch)")
        from .session import schema_fingerprint
        if prev.fingerprint != schema_fingerprint(delta.old):
            raise ReasoningError(
                "delta.old does not match the schema the previous "
                "artifact was compiled from")
        if delta.is_empty():
            pipeline = cls.from_artifact(prev, config, timer=timer)
            pipeline.delta_stats["mode"] = "unchanged"
            return pipeline
        pipeline = cls(delta.new, config, timer=timer)
        if not seed_delta(pipeline, prev, delta):
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
        and the merged ``Natt``/``Nrel`` entries."""
        seed = self._expansion_delta
        if seed is not None:
            return build_expansion_delta(
                self.schema, seed.classes, seed.reused, seed.old,
                touched_relations=seed.touched_relations,
                size_limit=self.config.size_limit)
        tables = None
        if _expansion_needs_tables(self) is not None:
            tables = self.tables  # prebuilt by the prerequisite hook
        return build_expansion(
            self.schema, self.config.strategy,
            size_limit=self.config.size_limit, tables=tables,
            precomputed_classes=self._precomputed_classes)

    @PipelineStage("expansion")
    def system(self) -> PsiSystem:
        """The homogeneous disequation system ``Ψ_S`` over the expansion."""
        return build_system(self.expansion)

    @PipelineStage("system")
    def support(self) -> SupportResult:
        """The maximal acceptable support of ``Ψ_S`` plus a witness,
        computed by the configured LP backend (grafting verdicts of
        untouched blocks when the delta path seeded them)."""
        if self._support_seed is not None:
            from .delta import merge_support

            return merge_support(
                self.system, self._support_seed,
                backend=self.config.lp_backend,
                use_propagation=self.config.use_propagation,
                merge_columns=self.config.merge_columns,
                stats=self.delta_stats)
        return acceptable_support(
            self.system, backend=self.config.lp_backend,
            use_propagation=self.config.use_propagation,
            merge_columns=self.config.merge_columns)

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

    def compounds_by_cluster(self) -> dict:
        """Nonempty compound classes of the expansion grouped by the cluster
        containing them — the reuse units of incremental augmented queries.
        Only meaningful when the enumeration was cluster-confined
        (strategic)."""
        if self._cluster_compound_map is None:
            mapping = self.cluster_of()
            grouped: dict = {}
            for members in self.expansion.compound_classes:
                if not members:
                    continue
                grouped.setdefault(mapping[next(iter(members))],
                                   []).append(members)
            self._cluster_compound_map = grouped
        return self._cluster_compound_map

    # ------------------------------------------------------------------
    # Incremental augmented-query seeding
    # ------------------------------------------------------------------
    def can_seed_augmented(self, cdef) -> bool:
        """Is the incremental path applicable?  Requires a fresh query class
        and a cluster-confined (strategic) base enumeration that has already
        been built — otherwise a cold build is both needed and cheapest."""
        return ("expansion" in self._artifacts
                and self.expansion.strategy == "strategic"
                and cdef.name not in self.schema.class_symbols)

    def seed_augmented(self, target: "Pipeline", cdef) -> None:
        """Seed ``target`` (the pipeline of this schema plus ``cdef``)
        incrementally: preselection tables are extended by one row instead
        of rebuilt, and compound classes of every cluster the query class
        does not touch are reused verbatim — only the merged cluster is
        re-enumerated.  The seeding is an optimization only; verdicts are
        identical to a cold rebuild (the equivalence suite asserts this)."""
        from ..expansion.enumerate import dpll_compound_classes
        from ..expansion.graph import clusters as compute_clusters

        with current_tracer().span("pipeline.augmented_seed"), \
                self.timer.stage("augmented_seed"):
            aug_tables = self.tables.extended_with(target.schema, cdef.name)
            aug_clusters = compute_clusters(target.schema, aug_tables)
            base_index = {component: index
                          for index, component in enumerate(self.clusters())}
            grouped = self.compounds_by_cluster()
            combined: list[frozenset] = [frozenset()]
            for component in aug_clusters:
                base_at = base_index.get(component)
                if base_at is not None:
                    # Untouched cluster: same universe, same definitions,
                    # same table rows — the enumeration result is reusable.
                    combined.extend(grouped.get(base_at, ()))
                else:
                    combined.extend(
                        members for members in dpll_compound_classes(
                            target.schema, sorted(component), aug_tables)
                        if members)
        target._artifacts["tables"] = aug_tables
        target._clusters = aug_clusters
        target._precomputed_classes = tuple(combined)

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
