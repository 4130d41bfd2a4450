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
* warm :class:`~repro.reasoner.satisfiability.Reasoner` pipelines are kept
  in a **bounded LRU** (``config.session_cache_limit``), so an evolving
  fleet of schemas cannot exhaust memory;
* batched entry points (:meth:`SchemaSession.check_many`,
  :meth:`SchemaSession.classify`) reuse **one** support computation — and,
  through the reasoner's incremental augmented-query seeding, repeated
  formula queries against the same schema reuse warm tables and untouched
  clusters instead of rebuilding;
* with ``config.artifact_dir`` set, LRU misses consult the
  fingerprint-keyed **disk artifact cache**
  (:class:`~repro.engine.artifact.ArtifactCache`) before building: a hit
  rehydrates the Phase-1/Phase-2 stage products from a pickled
  :class:`~repro.engine.artifact.CompiledSchema`, an order of magnitude
  cheaper than rebuilding them, and a fresh build persists its snapshot
  the moment ``Ψ_S`` completes — so the *next* process (CLI run, service
  boot, pool worker) starts warm.

The CLI and the benchmark driver both construct their reasoners through a
session, so every entry point exercises the same engine path.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Optional, Union

from ..core.errors import CarError
from ..core.formulas import FormulaLike
from ..core.schema import Schema
from ..obs.tracer import current_tracer
from ..parser.printer import render_schema
from .config import EngineConfig
from .stats import PipelineStats, SessionStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..reasoner.satisfiability import CoherenceReport, Reasoner
    from .delta import RevalidationReport
    from .executor import BatchQueryLike, QueryOutcome, _ShardPayload

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
    """
    schema = _as_schema(schema)
    canonical = Schema(
        sorted(schema.class_definitions, key=lambda cdef: cdef.name),
        sorted(schema.relation_definitions, key=lambda rdef: rdef.name))
    return hashlib.sha256(
        render_schema(canonical).encode("utf-8")).hexdigest()


def _as_schema(schema: SchemaLike) -> Schema:
    if isinstance(schema, Schema):
        return schema
    from ..parser.parser import parse_schema

    return parse_schema(schema)


class SchemaSession:
    """A service-facing façade over the engine: warm pipelines per schema.

    One session holds one :class:`~repro.engine.config.EngineConfig` and a
    bounded LRU of reasoners keyed by schema fingerprint.  All entry points
    accept a :class:`~repro.core.schema.Schema` or concrete-syntax source
    text.

    >>> session = SchemaSession()
    >>> session.satisfiable("class A isa not A endclass", "A")
    False
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config if config is not None else EngineConfig()
        self._cache: "OrderedDict[str, Reasoner]" = OrderedDict()
        # Query rewriters by schema fingerprint: each holds the per-schema
        # rewrite cache, bounded like the reasoner LRU.
        self._rewriters: OrderedDict = OrderedDict()
        self._executor = None
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # The LRU and its counters are shared by every thread of a
        # threaded server; get/move_to_end/popitem must not interleave
        # (a lookup racing an eviction would KeyError on move_to_end).
        self._lock = threading.RLock()
        from .artifact import ArtifactCache

        self._artifact_cache = ArtifactCache.from_config(self.config)

    # ------------------------------------------------------------------
    # The pipeline cache
    # ------------------------------------------------------------------
    def reasoner(self, schema: SchemaLike) -> "Reasoner":
        """The warm reasoner for ``schema`` — cached by fingerprint.

        A hit returns the existing instance with whatever pipeline stages
        and memoized query verdicts it already accumulated; a miss builds a
        fresh (lazy, so cheap) reasoner and may evict the least recently
        used one.
        """
        from ..reasoner.satisfiability import Reasoner

        schema = _as_schema(schema)
        key = schema_fingerprint(schema)
        tracer = current_tracer()
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                tracer.add("session.cache_hits")
                self._cache.move_to_end(key)
                return cached
            self._misses += 1
            tracer.add("session.cache_misses")
            reasoner = self._build_reasoner(schema, key)
            self._cache[key] = reasoner
            while len(self._cache) > self.config.session_cache_limit:
                self._cache.popitem(last=False)
                self._evictions += 1
                tracer.add("session.cache_evictions")
            tracer.gauge("session.cache_size", len(self._cache))
            return reasoner

    def _build_reasoner(self, schema: Schema, fingerprint: str) -> "Reasoner":
        """The LRU-miss construction path, artifact cache first.

        A disk hit rehydrates the pipeline from its
        :class:`~repro.engine.artifact.CompiledSchema` snapshot; a miss
        builds lazily and arms the persist hook, so the snapshot is saved
        the moment the ``system`` stage completes (never eagerly — an
        eager build here would escape per-query budget scopes).
        """
        from ..reasoner.satisfiability import Reasoner
        from .pipeline import Pipeline

        cache = self._artifact_cache
        if cache is not None:
            artifact = cache.load(fingerprint, self.config)
            if artifact is not None:
                pipeline = Pipeline.from_artifact(artifact, self.config)
                return Reasoner.from_pipeline(pipeline)
        reasoner = Reasoner(schema, config=self.config)
        if cache is not None:
            reasoner.pipeline.on_system_built = (
                lambda pipeline: cache.store(pipeline.compile()))
        return reasoner

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
        with self._lock:
            cached = self._cache.get(fingerprint)
        if cached is None:
            return None
        pipeline = cached.pipeline
        if "system" not in pipeline._artifacts:
            return None
        return pipeline.compile()

    def cache_info(self) -> SessionStats:
        """Hit/miss/eviction counters and current occupancy."""
        with self._lock:
            return SessionStats(self._hits, self._misses, self._evictions,
                                len(self._cache),
                                self.config.session_cache_limit)

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
        directly its fingerprint (a 64-char hex string that parses as
        neither is treated as a fingerprint only when it *is* one the
        session has seen); ``None`` means "no predecessor", a cold build.
        The previous :class:`~repro.engine.artifact.CompiledSchema` is
        recovered from the warm LRU (:meth:`peek_compiled`) or the disk
        artifact cache, a :class:`~repro.engine.delta.SchemaDelta` is
        computed, and :meth:`Pipeline.recompile_from
        <repro.engine.pipeline.Pipeline.recompile_from>` rebuilds only the
        dirty clusters.  The new reasoner lands in the LRU under the new
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
        old_schema: Optional[Schema] = None
        if old is not None:
            if (isinstance(old, str) and len(old) == 64
                    and all(ch in "0123456789abcdef" for ch in old)):
                old_fp = old
            else:
                old_schema = _as_schema(old)
                old_fp = schema_fingerprint(old_schema)
            prev = self.peek_compiled(old_fp)
            if prev is None and self._artifact_cache is not None:
                prev = self._artifact_cache.load(old_fp, self.config)
            if prev is not None and old_schema is None:
                old_schema = prev.schema

        if prev is None or old_schema is None:
            # Cold path: nothing to diff against.  reasoner() handles the
            # LRU bookkeeping; forcing support makes the update a complete
            # revalidation rather than a lazy promise.
            reasoner = self.reasoner(new_schema)
            _ = reasoner.pipeline.support
            tracer.add("session.update_fresh")
            return reasoner, RevalidationReport(
                mode="fresh", fingerprint_old=old_fp, fingerprint_new=new_fp,
                duration_s=_time.perf_counter() - started)

        delta = SchemaDelta.between(old_schema, new_schema)
        pipeline = Pipeline.recompile_from(prev, delta, self.config)
        _ = pipeline.support
        reasoner = Reasoner.from_pipeline(pipeline)
        with self._lock:
            self._cache[new_fp] = reasoner
            self._cache.move_to_end(new_fp)
            while len(self._cache) > self.config.session_cache_limit:
                self._cache.popitem(last=False)
                self._evictions += 1
                tracer.add("session.cache_evictions")
            tracer.gauge("session.cache_size", len(self._cache))
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

        A single :class:`~repro.core.schema.Schema` or source-text string
        names one schema (strings are *not* treated as iterables of
        characters); any other iterable invalidates each member.

        Eviction is complete, not just an LRU pop: popped reasoners have
        their persist hooks disarmed, so a half-built pipeline invalidated
        mid-flight cannot resurrect its snapshot into the disk cache when
        its ``system`` stage later completes, and :meth:`peek_compiled`
        snapshots vanish with the entry they were read from.  With
        ``drop_artifacts=True`` the on-disk artifacts (every
        config-fingerprint variant) are unlinked too, so the next build is
        genuinely cold.
        """
        with self._lock:
            if schema is None:
                popped = list(self._cache.values())
                fingerprints = list(self._cache.keys())
                self._cache.clear()
            else:
                members = ([schema] if isinstance(schema, (Schema, str))
                           else list(schema))
                fingerprints = [schema_fingerprint(m) for m in members]
                popped = [entry for entry in
                          (self._cache.pop(fp, None) for fp in fingerprints)
                          if entry is not None]
            for reasoner in popped:
                reasoner.pipeline.on_system_built = None
            if schema is None:
                self._rewriters.clear()
            else:
                for fingerprint in fingerprints:
                    self._rewriters.pop(fingerprint, None)
            current_tracer().gauge("session.cache_size", len(self._cache))
        if drop_artifacts and self._artifact_cache is not None:
            if schema is None:
                self._artifact_cache.clear()
            else:
                for fingerprint in fingerprints:
                    self._artifact_cache.discard_fingerprint(fingerprint)

    def __contains__(self, schema: SchemaLike) -> bool:
        return schema_fingerprint(schema) in self._cache

    def __len__(self) -> int:
        return len(self._cache)

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
        from .executor import QueryError, QueryOutcome, _answer_with_reasoner

        coerced: list[tuple[int, object]] = []
        outcomes: dict[int, QueryOutcome] = {}
        for index, formula in enumerate(formulas):
            try:
                coerced.append((index, as_formula(formula)))
            except CarError as exc:
                outcomes[index] = QueryOutcome(
                    index, None, QueryError.from_exception(exc))
        total = len(coerced) + len(outcomes)
        if coerced:
            try:
                schema_obj = _as_schema(schema)
                fingerprint = schema_fingerprint(schema_obj)
                reasoner = self.reasoner(schema_obj)
            except CarError as exc:
                error = QueryError.from_exception(exc)
                for index, _ in coerced:
                    outcomes[index] = QueryOutcome(index, None, error)
            else:
                for index, formula in coerced:
                    outcomes[index] = _answer_with_reasoner(
                        reasoner, index, formula, deadline, max_steps,
                        collect_stats, fingerprint)
        return [outcomes[index] for index in range(total)]

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

    def _answer_shard(self, payload: "_ShardPayload") -> "list[QueryOutcome]":
        """In-process shard execution against this session's warm cache
        (the serial path of :class:`~repro.engine.executor.BatchExecutor`)."""
        from .executor import QueryError, QueryOutcome, _answer_with_reasoner

        try:
            reasoner = self.reasoner(payload.schema_source)
        except CarError as exc:
            error = QueryError.from_exception(exc)
            return [QueryOutcome(index, None, error,
                                 schema_fingerprint=payload.fingerprint)
                    for index, _ in payload.queries]
        return [_answer_with_reasoner(reasoner, index, formula,
                                      payload.deadline, payload.max_steps,
                                      payload.collect_stats,
                                      payload.fingerprint)
                for index, formula in payload.queries]

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
        rewrite cache — is kept warm per fingerprint, parallel to the
        reasoner LRU.  Returns a :class:`~repro.qa.evaluator.QueryAnswer`.
        """
        from ..qa import certain_answers, database_from_document, parse_query
        from ..semantics.database import Database

        schema_obj = _as_schema(schema)
        fingerprint = schema_fingerprint(schema_obj)
        reasoner = self.reasoner(schema_obj)
        rewriter = self._rewriter_for(fingerprint, reasoner)
        if isinstance(query, str):
            query = parse_query(query, reasoner.schema)
        else:
            query.validate(reasoner.schema)
        if database is not None and not isinstance(database, Database):
            database = database_from_document(reasoner.schema, database)
        return certain_answers(rewriter, query, database, reasoner=reasoner)

    def _rewriter_for(self, fingerprint: str, reasoner: "Reasoner"):
        """The warm :class:`~repro.qa.rewriter.QueryRewriter` for one
        schema, building (and persisting) its closure index on first use."""
        with self._lock:
            rewriter = self._rewriters.get(fingerprint)
            if rewriter is not None:
                self._rewriters.move_to_end(fingerprint)
                return rewriter
        # Closure construction happens outside the lock (it forces the
        # support stage); a racing thread at worst builds it twice.
        closure = reasoner.pipeline.closure_index()
        if (self._artifact_cache is not None
                and "system" in reasoner.pipeline._artifacts):
            # Re-store so the next process rehydrates the closure too.
            self._artifact_cache.store(reasoner.pipeline.compile())
        from ..qa import QueryRewriter

        with self._lock:
            rewriter = self._rewriters.get(fingerprint)
            if rewriter is None:
                rewriter = QueryRewriter(closure)
                self._rewriters[fingerprint] = rewriter
                while len(self._rewriters) > self.config.session_cache_limit:
                    self._rewriters.popitem(last=False)
            return rewriter

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
