"""Schema sessions: cached, reusable reasoning pipelines across queries.

A CLI invocation builds a pipeline, answers one question, and throws the
work away.  A service answering many satisfiability/implication queries
over evolving schemas cannot afford that: Phase 1 (the expansion) and
Phase 2 (the support) dominate the cost, yet are pure functions of the
schema and the engine configuration.  :class:`SchemaSession` is the layer
that exploits this:

* schemas are **fingerprinted** by a canonical-form hash
  (:func:`schema_fingerprint`) — definition order, not meaning, is
  normalized away, so a re-parsed or re-serialized schema hits the cache;
* each schema's warm state — its
  :class:`~repro.reasoner.satisfiability.Reasoner` and, once a query asks,
  its :class:`~repro.qa.rewriter.QueryRewriter` — is one entry of a
  **bounded LRU** (an :class:`~repro.core.lru.LruMemo` of
  ``config.session_cache_limit`` entries, traced as ``session.cache_*``),
  so an evolving fleet of schemas cannot exhaust memory; a miss builds
  under its entry's lock, not the LRU's, so it never stalls another
  schema's hit, and concurrent callers of one schema share one build —
  each waiting no longer than its own budget's deadline;
* batched entry points (:meth:`SchemaSession.check_many`,
  :meth:`SchemaSession.classify`) reuse **one** support computation — and,
  since the reasoner's augmented queries rebuild through
  :meth:`Pipeline.recompile_from
  <repro.engine.pipeline.Pipeline.recompile_from>`, repeated formula
  queries against the same schema reuse warm table rows, untouched
  clusters and their ``Ψ_S`` blocks instead of rebuilding;
* with ``config.artifact_dir`` set, LRU misses consult the
  fingerprint-keyed **disk artifact cache**
  (:class:`~repro.engine.artifact.ArtifactCache`) before building: a hit
  rehydrates the Phase-1/Phase-2 stage products from a pickled
  :class:`~repro.engine.artifact.CompiledSchema`, an order of magnitude
  cheaper than rebuilding them, and a fresh build persists its snapshot
  the moment ``Ψ_S`` completes, and again when a query first builds the
  closure index — so the *next* process (CLI run, service boot, pool
  worker) starts warm.

The CLI and the benchmark driver both construct their reasoners through a
session, so every entry point exercises the same engine path.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from ..core.budget import current_budget
from ..core.errors import BudgetExceeded, CarError
from ..core.formulas import FormulaLike
from ..core.lru import LruMemo
from ..core.schema import Schema
from ..obs.tracer import current_tracer
from ..parser.printer import render_schema
from .config import EngineConfig
from .stats import PipelineStats, SessionStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..reasoner.satisfiability import CoherenceReport, Reasoner
    from .delta import RevalidationReport
    from .artifact import ArtifactCache
    from .executor import BatchQueryLike, QueryOutcome

__all__ = ["SchemaSession", "SessionStats", "schema_fingerprint"]

#: Entry points accept either a parsed schema or concrete-syntax source.
SchemaLike = Union[Schema, str]


def schema_fingerprint(schema: SchemaLike) -> str:
    """A canonical-form hash of a schema.

    The schema is re-ordered canonically (class and relation definitions
    sorted by name — reordering definitions never changes the semantics),
    rendered to concrete syntax, and hashed.  Two schemas with equal
    definitions therefore share a fingerprint regardless of definition
    order or the textual route they arrived by; structurally different
    schemas collide only with SHA-256 probability.

    The hash is kept on the :class:`~repro.core.schema.Schema`, which
    never changes after construction, so each schema object is rendered
    and hashed once however many layers ask.
    """
    schema = _as_schema(schema)
    # Schemas unpickled from older payloads carry no stored hash.
    fingerprint = getattr(schema, "_fingerprint", None)
    if fingerprint is None:
        canonical = Schema(
            sorted(schema.class_definitions, key=lambda cdef: cdef.name),
            sorted(schema.relation_definitions, key=lambda rdef: rdef.name))
        fingerprint = hashlib.sha256(
            render_schema(canonical).encode("utf-8")).hexdigest()
        schema._fingerprint = fingerprint
    return fingerprint


def _fingerprint_of(schema: SchemaLike) -> str:
    """The fingerprint of a schema or its source text — or ``schema``
    itself when it already is one: a 64-character lowercase hex string,
    which no schema source can be (every definition needs a keyword)."""
    if (isinstance(schema, str) and len(schema) == 64
            and all(ch in "0123456789abcdef" for ch in schema)):
        return schema
    return schema_fingerprint(schema)


def _as_schema(schema: SchemaLike) -> Schema:
    if isinstance(schema, Schema):
        return schema
    from ..parser.parser import parse_schema

    return parse_schema(schema)


def _build_reasoner(schema: Schema, fingerprint: str, config: EngineConfig,
                    cache: "Optional[ArtifactCache]") -> "Reasoner":
    """A new reasoner for ``schema``, disk artifact first — the one build
    path of a session's LRU misses and of batch pool workers.

    A disk hit rehydrates the pipeline from its
    :class:`~repro.engine.artifact.CompiledSchema` snapshot; a miss builds
    lazily and arms the persist hook, so the snapshot is saved the moment
    the ``system`` stage completes (never eagerly — an eager build here
    would escape per-query budget scopes).
    """
    from ..reasoner.satisfiability import Reasoner
    from .pipeline import Pipeline

    if cache is not None:
        artifact = cache.load(fingerprint, config)
        if artifact is not None:
            return Reasoner.from_pipeline(
                Pipeline.from_artifact(artifact, config))
    reasoner = Reasoner(schema, config=config)
    if cache is not None:
        reasoner.pipeline.on_system_built = (
            lambda pipeline: cache.store(pipeline.compile()))
    return reasoner


class _Entry:
    """One schema's warm state, the unit of the session LRU: its reasoner
    and, once a query asks for it, the query rewriter over its closure,
    each built once under the entry's own lock (:meth:`building`)."""

    __slots__ = ("lock", "reasoner", "rewriter")

    def __init__(self, reasoner: "Optional[Reasoner]" = None):
        self.lock = threading.Lock()
        self.reasoner = reasoner
        self.rewriter = None

    @contextmanager
    def building(self) -> Iterator[None]:
        """Hold the entry's lock for a build, waiting no longer than the
        ambient budget's deadline: a caller whose time runs out behind
        another caller's build raises
        :class:`~repro.core.errors.BudgetExceeded`."""
        budget = current_budget()
        remaining = budget.remaining_seconds()
        if not self.lock.acquire(timeout=-1 if remaining is None
                                 else remaining):
            raise BudgetExceeded(
                f"deadline of {budget.deadline:g}s exceeded waiting for "
                f"another request's build of the same schema",
                steps=budget.steps, deadline=budget.deadline)
        try:
            yield
        finally:
            self.lock.release()


class SchemaSession:
    """A service-facing façade over the engine: warm pipelines per schema.

    One session holds one :class:`~repro.engine.config.EngineConfig` and a
    bounded LRU of per-schema entries keyed by schema fingerprint.  All
    entry points accept a :class:`~repro.core.schema.Schema` or
    concrete-syntax source text.

    >>> session = SchemaSession()
    >>> session.satisfiable("class A isa not A endclass", "A")
    False
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config if config is not None else EngineConfig()
        self._entries = LruMemo(self.config.session_cache_limit,
                                "session.cache", gauge=True)
        self._executor = None
        self._lock = threading.Lock()  # guards the executor
        from .artifact import ArtifactCache

        self._artifact_cache = ArtifactCache.from_config(self.config)

    # ------------------------------------------------------------------
    # The pipeline cache
    # ------------------------------------------------------------------
    def reasoner(self, schema: SchemaLike) -> "Reasoner":
        """The warm reasoner for ``schema`` — cached by fingerprint.

        A hit returns the existing instance with whatever pipeline stages
        and memoized query verdicts it already accumulated; a miss builds a
        fresh (lazy, so cheap) reasoner through :func:`_build_reasoner`
        and may evict the least recently used one.
        """
        return self._entry(_as_schema(schema)).reasoner

    def _entry(self, schema: Schema) -> _Entry:
        key = schema_fingerprint(schema)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries.setdefault(key, _Entry())
        if entry.reasoner is None:
            # Under the entry's lock, not the LRU's: a disk artifact load
            # holds up only the callers of this schema, and they share it.
            with entry.building():
                if entry.reasoner is None:
                    entry.reasoner = _build_reasoner(
                        schema, key, self.config, self._artifact_cache)
        return entry

    def _built_pipeline(self, fingerprint: str):
        """The warm pipeline for ``fingerprint`` if its ``system`` stage is
        built, else None; uncounted, and it never forces a build."""
        entry = self._entries.peek(fingerprint)
        reasoner = None if entry is None else entry.reasoner
        if reasoner is None or "system" not in reasoner.pipeline._artifacts:
            return None
        return reasoner.pipeline

    @property
    def artifact_cache(self):
        """The disk :class:`~repro.engine.artifact.ArtifactCache`, or None
        when ``config.artifact_dir`` is unset."""
        return self._artifact_cache

    def peek_compiled(self, fingerprint: str):
        """A :class:`~repro.engine.artifact.CompiledSchema` snapshot of the
        warm reasoner for ``fingerprint``, or None.

        Returns a snapshot only when the cached pipeline has its
        ``system`` stage built already — then :meth:`Pipeline.compile
        <repro.engine.pipeline.Pipeline.compile>` is a cheap repack, and
        the :class:`~repro.engine.executor.BatchExecutor` can ship it to
        pool workers instead of raw schema text.  Never forces a build.
        """
        pipeline = self._built_pipeline(fingerprint)
        return None if pipeline is None else pipeline.compile()

    def cache_info(self) -> SessionStats:
        """Hit/miss/eviction counters and current occupancy."""
        stats = self._entries.stats()
        return SessionStats(stats.hits, stats.misses, stats.evictions,
                            stats.size, stats.limit)

    def warm(self, schemas: Iterable[SchemaLike]) -> list[PipelineStats]:
        """Pre-build every pipeline stage for each schema, now.

        A service that knows its schema fleet ahead of time calls this
        before taking traffic, so no query pays first-build latency.
        Returns the per-schema :class:`~repro.engine.stats.PipelineStats`
        in input order (building a pipeline *is* measuring it).
        """
        return [self.reasoner(schema).stats() for schema in schemas]

    def update(self, old: Union[SchemaLike, str, None],
               new: SchemaLike) -> "tuple[Reasoner, RevalidationReport]":
        """Revalidate an edited schema, reusing the previous version's work.

        ``old`` names the previous version — a schema, its source text, or
        directly its fingerprint (what the registry passes); ``None`` means
        "no predecessor", a cold build.  The previous pipeline is the warm
        LRU entry when it has built its ``system`` stage, else
        :meth:`Pipeline.from_artifact
        <repro.engine.pipeline.Pipeline.from_artifact>` of the disk
        artifact; a :class:`~repro.engine.delta.SchemaDelta` from its
        schema is computed, and :meth:`Pipeline.recompile_from
        <repro.engine.pipeline.Pipeline.recompile_from>` rebuilds only what
        the edit touched.  The new reasoner lands in the LRU under the new
        fingerprint (its support solved eagerly — an update *is* a
        revalidation), its artifact is persisted verdicts and all, and the
        returned :class:`~repro.engine.delta.RevalidationReport` itemizes
        the reuse.
        """
        import time as _time

        from ..reasoner.satisfiability import Reasoner
        from .delta import RevalidationReport, SchemaDelta
        from .pipeline import Pipeline

        started = _time.perf_counter()
        tracer = current_tracer()
        new_schema = _as_schema(new)
        new_fp = schema_fingerprint(new_schema)
        prev = old_fp = None
        if old is not None:
            old_fp = _fingerprint_of(old)
            prev = self._built_pipeline(old_fp)
            if prev is None and self._artifact_cache is not None:
                artifact = self._artifact_cache.load(old_fp, self.config)
                if artifact is not None:
                    prev = Pipeline.from_artifact(artifact, self.config)

        if prev is None:
            # Cold path: nothing to diff against.  reasoner() handles the
            # LRU bookkeeping; forcing support makes the update a complete
            # revalidation rather than a lazy promise.
            reasoner = self.reasoner(new_schema)
            _ = reasoner.pipeline.support
            tracer.add("session.update_fresh")
            return reasoner, RevalidationReport(
                mode="fresh", fingerprint_old=old_fp, fingerprint_new=new_fp,
                duration_s=_time.perf_counter() - started)

        delta = SchemaDelta.between(prev.schema, new_schema)
        pipeline = Pipeline.recompile_from(prev, delta, self.config)
        _ = pipeline.support
        reasoner = Reasoner.from_pipeline(pipeline)
        self._entries.put(new_fp, _Entry(reasoner))
        if self._artifact_cache is not None:
            self._artifact_cache.store(pipeline.compile())
        stats = pipeline.delta_stats
        mode = stats.get("mode", "delta")
        tracer.add(f"session.update_{mode}")
        return reasoner, RevalidationReport(
            mode=mode, fingerprint_old=old_fp, fingerprint_new=new_fp,
            clusters_total=stats.get("clusters_total", 0),
            clusters_reused=stats.get("clusters_reused", 0),
            clusters_rebuilt=stats.get("clusters_rebuilt", 0),
            compounds_reused=stats.get("compounds_reused", 0),
            compounds_fresh=stats.get("compounds_fresh", 0),
            support_blocks_reused=stats.get("support_blocks_reused", 0),
            support_blocks_solved=stats.get("support_blocks_solved", 0),
            duration_s=_time.perf_counter() - started,
            delta=delta.summary())

    def invalidate(
            self,
            schema: Union[SchemaLike, Iterable[SchemaLike], None] = None,
            *, drop_artifacts: bool = False,
    ) -> None:
        """Drop warm pipelines: one schema's, an iterable's worth, or all.

        A single :class:`~repro.core.schema.Schema`, source-text string or
        fingerprint names one schema (strings are *not* treated as
        iterables of characters); any other iterable invalidates each
        member.  A fingerprint is taken as it is, with no parse.

        Eviction is complete, not just an LRU pop: popped reasoners have
        their persist hooks disarmed, so a half-built pipeline invalidated
        mid-flight cannot resurrect its snapshot into the disk cache when
        its ``system`` stage later completes, and :meth:`peek_compiled`
        snapshots vanish with the entry they were read from.  With
        ``drop_artifacts=True`` the on-disk artifacts (every
        config-fingerprint variant) are unlinked too, so the next build is
        genuinely cold.
        """
        if schema is None:
            popped = self._entries.clear()
        else:
            members = ([schema] if isinstance(schema, (Schema, str))
                       else list(schema))
            fingerprints = [_fingerprint_of(m) for m in members]
            popped = [entry for entry in map(self._entries.pop, fingerprints)
                      if entry is not None]
        for entry in popped:
            with entry.lock:  # an in-flight build finishes first
                if entry.reasoner is not None:
                    entry.reasoner.pipeline.on_system_built = None
        if drop_artifacts and self._artifact_cache is not None:
            if schema is None:
                self._artifact_cache.clear()
            else:
                for fingerprint in fingerprints:
                    self._artifact_cache.discard_fingerprint(fingerprint)

    def __contains__(self, schema: SchemaLike) -> bool:
        """Is ``schema`` — a schema, its source text, or its fingerprint —
        warm in the LRU?"""
        return self._entries.peek(_fingerprint_of(schema)) is not None

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "SchemaSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batched query entry points
    # ------------------------------------------------------------------
    def satisfiable(self, schema: SchemaLike, class_name: str) -> bool:
        """Class satisfiability through the warm pipeline."""
        return self.reasoner(schema).is_satisfiable(class_name)

    def check_many(self, schema: SchemaLike,
                   formulas: Iterable[FormulaLike]) -> list[bool]:
        """Formula satisfiability for a batch, reusing one support
        computation (and the reasoner's augmented-query seeding and verdict
        memoization for the cross-cluster cases).

        A thin shim over :meth:`check_many_detailed`: each outcome's
        verdict is taken via :meth:`QueryOutcome.require()
        <repro.engine.executor.QueryOutcome.require>`, so a failed query
        raises its carried error the moment its slot is realized."""
        return [outcome.require()
                for outcome in self.check_many_detailed(
                    schema, formulas, collect_stats=False)]

    def check_many_detailed(
            self, schema: SchemaLike, formulas: Iterable[FormulaLike], *,
            deadline: Optional[float] = None,
            max_steps: Optional[int] = None,
            collect_stats: bool = True) -> "list[QueryOutcome]":
        """Formula satisfiability for a batch, with typed outcomes.

        Like :meth:`check_many` but failure-isolated and budgeted: each
        query runs under a fresh :class:`~repro.core.budget.Budget` of
        ``deadline`` seconds / ``max_steps`` hot-loop ticks (when given),
        and each yields a :class:`~repro.engine.executor.QueryOutcome` —
        verdict, error, duration, step count, pipeline-stats snapshot —
        instead of an exception tearing the batch down.
        """
        from ..core.formulas import as_formula
        from .executor import QueryError, QueryOutcome, _answer_shard, \
            _ShardPayload

        queries: list[tuple[int, object]] = []
        outcomes: list[QueryOutcome] = []
        for index, formula in enumerate(formulas):
            try:
                queries.append((index, as_formula(formula)))
            except CarError as exc:
                outcomes.append(QueryOutcome(
                    index, None, QueryError.from_exception(exc)))
        if queries:
            # Source text is parsed inside the shard runner, so a schema
            # that does not parse fails each query, not the call.
            payload = _ShardPayload(schema, None, tuple(queries),
                                    self.config, deadline, max_steps,
                                    collect_stats)
            outcomes += _answer_shard(
                payload, lambda shard: self.reasoner(shard.schema))
        return sorted(outcomes, key=lambda outcome: outcome.index)

    def run_batch(self, queries: "Iterable[BatchQueryLike]", *,
                  jobs: Optional[int] = 1, mode: str = "auto",
                  deadline: Optional[float] = None,
                  max_steps: Optional[int] = None,
                  collect_stats: bool = True) -> "list[QueryOutcome]":
        """Answer a heterogeneous batch of ``(schema, formula)`` queries.

        The session keeps one warm
        :class:`~repro.engine.executor.BatchExecutor` (recreated only when
        ``jobs``/``mode`` change), so repeated batches reuse the worker
        pool.  Serial shards run through this session's pipeline cache;
        parallel shards go to workers that warm their own.  See
        :meth:`BatchExecutor.run <repro.engine.executor.BatchExecutor.run>`
        for budget and failure-isolation semantics.
        """
        from .executor import BatchExecutor

        if jobs is None:
            import os

            jobs = os.cpu_count() or 1
        with self._lock:
            executor = self._executor
            if (executor is None or executor.jobs != jobs
                    or executor.mode != mode):
                if executor is not None:
                    executor.close()
                executor = BatchExecutor(self.config, jobs=jobs, mode=mode)
                self._executor = executor
        return executor.run(queries, deadline=deadline,
                            max_steps=max_steps,
                            collect_stats=collect_stats, session=self)

    def close(self) -> None:
        """Release the batch executor's worker pool (idempotent).

        Sessions are context managers — ``with SchemaSession() as s:``
        closes on exit, so a forgotten ``close()`` cannot leak the pool.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.close()
                self._executor = None

    # ------------------------------------------------------------------
    # Conjunctive-query answering
    # ------------------------------------------------------------------
    def query(self, schema: SchemaLike, query, database=None):
        """Certain answers of a conjunctive query over ``schema``.

        ``query`` is concrete syntax (``q(x) :- Person(x), works_for(x,
        y)``) or a parsed :class:`~repro.qa.ast.ConjunctiveQuery`;
        ``database`` is a :class:`~repro.semantics.database.Database`, the
        JSON document shape of :func:`~repro.qa.data.database_from_document`,
        or None (schema-only entailment).  The schema's
        :class:`~repro.qa.rewriter.QueryRewriter` — and with it the
        rewrite cache and the class-combination memo — is built once, by
        the first query, and kept in the schema's LRU entry next to its
        reasoner; concurrent first queries wait for that build, each no
        longer than its budget's deadline.  Returns a
        :class:`~repro.qa.evaluator.QueryAnswer`.
        """
        from ..qa import certain_answers, database_from_document, parse_query
        from ..semantics.database import Database

        entry = self._entry(_as_schema(schema))
        reasoner = entry.reasoner
        if entry.rewriter is None:
            with entry.building():
                if entry.rewriter is None:
                    entry.rewriter = self._new_rewriter(reasoner.pipeline)
        if isinstance(query, str):
            query = parse_query(query, reasoner.schema)
        else:
            query.validate(reasoner.schema)
        if database is not None and not isinstance(database, Database):
            database = database_from_document(reasoner.schema, database)
        return certain_answers(entry.rewriter, query, database,
                               reasoner=reasoner)

    def _new_rewriter(self, pipeline):
        """A :class:`~repro.qa.rewriter.QueryRewriter` over the pipeline's
        closure index.  The call that builds the closure (it forces the
        support stage) stores the snapshot again, so the next process
        rehydrates the closure too; a closure loaded from that snapshot is
        not stored twice."""
        from ..qa import QueryRewriter

        built = pipeline._closure_index is None
        closure = pipeline.closure_index()
        if built and self._artifact_cache is not None:
            self._artifact_cache.store(pipeline.compile())
        return QueryRewriter(closure)

    def check_coherence(self, schema: SchemaLike) -> "CoherenceReport":
        """Whole-schema validation through the warm pipeline."""
        return self.reasoner(schema).check_coherence()

    def classify(self, schema: SchemaLike):
        """The implied subsumption hierarchy, reusing the warm pipeline."""
        from ..reasoner.implication import classify as _classify

        return _classify(self.reasoner(schema))

    def stats(self, schema: SchemaLike) -> PipelineStats:
        """Pipeline measurements for ``schema`` (builds missing stages)."""
        return self.reasoner(schema).stats()
