"""The batch executor: bounded, parallel, failure-isolated query batches.

The service contract this module implements (following the batched
query-answering services of the ER/DL literature — Calì & Martinenghi's
query answering over extended ER schemata, Artale et al.'s DL reasoning
services for databases):

* a **batch** of independent ``(schema, formula)`` queries is answered as
  one call, fanned out across a worker pool;
* every query is governed by a cooperative
  :class:`~repro.core.budget.Budget` (wall-clock deadline and/or step
  bound), so a pathological schema — the paper's Section 4 EXPTIME-hard
  constructions — costs a bounded slice of one worker, never a pinned
  service;
* every query yields a typed, frozen :class:`QueryOutcome` — verdict,
  error, duration, stats — and one malformed or timed-out query never
  kills its batch.

Parallelism is **sharded by schema fingerprint**: queries against the same
schema travel together to one worker, which builds that schema's pipeline
once and answers the whole shard against the warm support (exactly the
reuse :meth:`~repro.engine.session.SchemaSession.check_many` exploits
serially).  Workers start *warm* whenever possible: a shard whose schema
the parent session has already compiled ships the precompiled
:class:`~repro.engine.artifact.CompiledSchema` snapshot in its payload
(one unpickle beats a re-expand by an order of magnitude), and a cold
worker consults the disk artifact cache before building from the parsed
schema the payload carries.  The pool is a
:class:`concurrent.futures.ProcessPoolExecutor` by default — the pipeline
is pure CPU-bound Python, so processes are the only way to real
parallelism — with a thread-pool and a serial fallback
when process pools are unavailable (restricted sandboxes, interpreters
without ``fork``/``spawn``); a broken pool degrades to in-process
execution instead of failing the batch.

Tracer counters (``executor.*``): ``tasks_dispatched``, ``shards``,
``tasks_completed``, ``tasks_timed_out``, ``tasks_failed``,
``pool_reuse``, ``pool_fallbacks``, and ``budget_checks`` (total hot-loop
ticks spent by the batch).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, \
    Union

from ..core import errors as _errors
from ..core.budget import NULL_BUDGET, Budget, use_budget
from ..core.errors import BudgetExceeded, CarError, ParseError
from ..core.formulas import Formula, as_formula
from ..core.schema import Schema
from ..obs.tracer import current_tracer
from .config import EngineConfig
from .stats import PipelineStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reasoner.satisfiability import Reasoner
    from .session import SchemaSession

__all__ = ["BatchExecutor", "BatchQuery", "QueryError", "QueryOutcome"]


# ----------------------------------------------------------------------
# The typed batch-query API
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchQuery:
    """One unit of batch work: a formula-satisfiability question.

    ``schema`` is a parsed :class:`~repro.core.schema.Schema` or
    concrete-syntax source text; ``formula`` a parsed
    :class:`~repro.core.formulas.Formula`.  Use :meth:`coerce` to accept
    the looser shapes batch drivers see (dicts from JSONL, 2-tuples,
    formula source text).
    """

    schema: Union[Schema, str]
    formula: Formula

    @classmethod
    def coerce(cls, value: "BatchQueryLike") -> "BatchQuery":
        """Coerce a query-like value to a :class:`BatchQuery`.

        Accepted shapes: a ``BatchQuery``; a ``(schema, formula)`` pair; a
        mapping with ``"schema"`` and ``"formula"`` keys (the JSONL line
        shape of ``repro batch``).  String formulas go through the
        concrete-syntax parser, so ``"A and not B"`` works, not just bare
        class names.  A :class:`~repro.core.errors.CarError` is raised as
        it is: a caller that failed to build a query (an invalid JSONL
        line, an unknown ``schema_ref``) passes the failure in its slot,
        and it becomes that query's outcome.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, CarError):
            raise value
        if isinstance(value, dict):
            try:
                schema, formula = value["schema"], value["formula"]
            except KeyError as exc:
                raise ParseError(
                    f"batch query object needs a {exc.args[0]!r} key") from None
        elif isinstance(value, Sequence) and not isinstance(value, str) \
                and len(value) == 2:
            schema, formula = value
        else:
            raise ParseError(
                f"cannot interpret {value!r} as a batch query; expected "
                f"a BatchQuery, a (schema, formula) pair, or a mapping "
                f"with 'schema' and 'formula' keys")
        if not isinstance(schema, (Schema, str)):
            raise ParseError(
                f"batch query schema must be a Schema or source text, "
                f"got {type(schema).__name__}")
        if isinstance(formula, str):
            from ..parser.parser import parse_formula

            formula = parse_formula(formula)
        else:
            formula = as_formula(formula)
        return cls(schema, formula)


#: Anything :meth:`BatchQuery.coerce` accepts.
BatchQueryLike = Union[BatchQuery, tuple, dict, CarError]


@dataclass(frozen=True)
class QueryError:
    """A picklable rendering of the exception one query died with.

    ``kind`` is the exception class name (a member of the
    :mod:`repro.core.errors` hierarchy, or an arbitrary class name for
    unexpected internal failures); ``exit_code`` its stable sysexit code;
    ``steps`` the hot-loop work performed before a budget tripped (only
    for :class:`~repro.core.errors.BudgetExceeded`).
    """

    kind: str
    message: str
    exit_code: int
    steps: Optional[int] = None

    @classmethod
    def from_exception(cls, exc: BaseException) -> "QueryError":
        exit_code = getattr(exc, "exit_code", CarError.exit_code)
        steps = getattr(exc, "steps", None)
        return cls(type(exc).__name__, str(exc), exit_code, steps)

    def to_exception(self) -> CarError:
        """Reconstruct a raisable error of the recorded kind.

        Unknown kinds (an unexpected internal exception in a worker)
        surface as plain :class:`~repro.core.errors.CarError` so callers
        still get a member of the library hierarchy.
        """
        klass = getattr(_errors, self.kind, None)
        if klass is None or not (isinstance(klass, type)
                                 and issubclass(klass, CarError)):
            return CarError(f"{self.kind}: {self.message}")
        if klass is BudgetExceeded:
            return BudgetExceeded(self.message, steps=self.steps)
        if klass is ParseError:
            return ParseError(self.message)
        return klass(self.message)

    def to_json(self) -> dict:
        return {"kind": self.kind, "message": self.message,
                "exit_code": self.exit_code, "steps": self.steps}


@dataclass(frozen=True)
class QueryOutcome:
    """The typed result of one batch query — verdict *or* error, never both.

    ``verdict`` is the satisfiability answer (None when the query failed);
    ``error`` carries the failure (None on success); ``duration`` the
    per-query wall-clock seconds; ``steps`` the hot-loop budget ticks the
    query consumed; ``stats`` a
    :class:`~repro.engine.stats.PipelineStats` snapshot of the pipeline
    that answered (None when the pipeline never finished building);
    ``schema_fingerprint`` correlates outcomes that shared a warm pipeline.
    """

    index: int
    verdict: Optional[bool]
    error: Optional[QueryError] = None
    duration: float = 0.0
    steps: int = 0
    stats: Optional[PipelineStats] = None
    schema_fingerprint: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Did the query produce a verdict?"""
        return self.error is None

    @property
    def timed_out(self) -> bool:
        """Did the query die on its budget (deadline or step bound)?"""
        return self.error is not None and self.error.kind == "BudgetExceeded"

    def require(self) -> bool:
        """The verdict — or the carried error, raised.

        This is the access point :meth:`SchemaSession.check_many
        <repro.engine.session.SchemaSession.check_many>` funnels through:
        a failed query stays quiet until its result is actually used.
        """
        if self.error is not None:
            raise self.error.to_exception()
        return self.verdict

    def to_json(self) -> dict:
        """A flat, JSON-able rendering (the ``repro batch`` JSONL line)."""
        return {
            "index": self.index,
            "verdict": self.verdict,
            "error": self.error.to_json() if self.error else None,
            "timed_out": self.timed_out,
            "duration_s": self.duration,
            "steps": self.steps,
            "schema_fingerprint": self.schema_fingerprint,
            "stats": self.stats.to_json() if self.stats else None,
        }


# ----------------------------------------------------------------------
# The worker function (module-level: must be picklable by the pool)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardPayload:
    """Everything one worker needs to answer one schema's queries.

    ``schema`` is the parsed schema (it pickles with its stored
    fingerprint, so a process worker neither parses nor renders it).
    ``artifact`` optionally carries the parent's precompiled
    :class:`~repro.engine.artifact.CompiledSchema` snapshot, so the worker
    unpickles warm Phase-1/Phase-2 stage products (one unpickle per worker
    per schema) instead of re-expanding the schema.  The session's own
    one-schema batch (:meth:`SchemaSession.check_many_detailed
    <repro.engine.session.SchemaSession.check_many_detailed>`) passes its
    caller's schema or source text as it came, and no ``fingerprint``.
    """

    schema: Schema
    fingerprint: Optional[str]
    queries: tuple[tuple[int, Formula], ...]
    config: EngineConfig
    deadline: Optional[float]
    max_steps: Optional[int]
    collect_stats: bool = True
    artifact: Optional[object] = None


def _shard_reasoner(payload: _ShardPayload):
    """A pool worker's reasoner for one shard: the shipped snapshot when
    it loads, else the session's build path (disk artifact, else a fresh
    build that persists its own snapshot for the next cold worker)."""
    from ..reasoner.satisfiability import Reasoner
    from .artifact import ArtifactCache
    from .pipeline import Pipeline
    from .session import _build_reasoner

    config = payload.config
    if payload.artifact is not None:
        try:
            pipeline = Pipeline.from_artifact(payload.artifact, config)
            return Reasoner.from_pipeline(pipeline)
        except CarError:
            pass  # incompatible snapshot: fall through to a real build
    return _build_reasoner(payload.schema, payload.fingerprint, config,
                           ArtifactCache.from_config(config))


def _answer_shard(payload: _ShardPayload,
                  reasoner_of: Callable[[_ShardPayload], "Reasoner"]
                  ) -> list[QueryOutcome]:
    """Answer one schema's queries — the one shard runner of pool
    workers, serial batches and :meth:`SchemaSession.check_many_detailed
    <repro.engine.session.SchemaSession.check_many_detailed>`.

    ``reasoner_of(payload)`` gets the reasoner once; a
    :class:`~repro.core.errors.CarError` there becomes every query's
    outcome.  Each query then runs under a fresh budget with its failure
    isolated in its outcome, tagged with the fingerprint of the
    reasoner's schema (a stored hash: no render).
    """
    from .session import schema_fingerprint

    try:
        reasoner = reasoner_of(payload)
    except CarError as exc:
        return _shard_failed(payload, exc)
    fingerprint = schema_fingerprint(reasoner.schema)
    return [_answer_with_reasoner(reasoner, index, formula,
                                  payload.deadline, payload.max_steps,
                                  payload.collect_stats, fingerprint)
            for index, formula in payload.queries]


def _shard_failed(payload: _ShardPayload,
                  exc: CarError) -> list[QueryOutcome]:
    """Every query of a shard failed with ``exc``."""
    error = QueryError.from_exception(exc)
    return [QueryOutcome(index, None, error,
                         schema_fingerprint=payload.fingerprint)
            for index, _ in payload.queries]


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class BatchExecutor:
    """Fan a batch of queries out across a worker pool, under budgets.

    Parameters
    ----------
    config:
        The :class:`~repro.engine.config.EngineConfig` every worker's
        pipeline runs under.
    jobs:
        Worker count.  ``1`` (the default) runs serially in-process;
        ``None`` means one worker per CPU.
    mode:
        ``"process"`` (real parallelism, the default for ``jobs > 1``),
        ``"thread"`` (GIL-bound; isolation without processes),
        ``"serial"``, or ``"auto"`` — processes when ``jobs > 1``, serial
        otherwise, degrading process→thread→serial when pools cannot be
        created.
    deadline / max_steps:
        Default per-query budget, overridable per :meth:`run` call.

    The ``executor.*`` counters go to the ambient tracer of the caller
    (:func:`~repro.obs.tracer.current_tracer`).  Pool workers run outside
    that tracer's context, so their pipelines record nothing — per-worker
    traces would not survive the process boundary anyway.

    The executor keeps its pool warm across :meth:`run` calls
    (``executor.pool_reuse``); use it as a context manager, or call
    :meth:`close`, to shut the pool down deterministically.
    """

    #: The pool flavors ``mode`` accepts; ``repro batch --mode`` and
    #: ``POST /v1/batch`` read this list.
    MODES = ("auto", "process", "thread", "serial")

    def __init__(self, config: Optional[EngineConfig] = None, *,
                 jobs: Optional[int] = 1, mode: str = "auto",
                 deadline: Optional[float] = None,
                 max_steps: Optional[int] = None):
        if mode not in self.MODES:
            raise CarError(f"unknown executor mode {mode!r}; expected one "
                           f"of {', '.join(self.MODES)}")
        if jobs is None:
            import os

            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise CarError(f"jobs must be positive, got {jobs}")
        self.config = config if config is not None else EngineConfig()
        self.jobs = jobs
        self.mode = mode
        self.deadline = deadline
        self.max_steps = max_steps
        self._pool = None
        self._pool_kind: Optional[str] = None

    # -- pool management ------------------------------------------------
    def _effective_mode(self) -> str:
        if self.mode != "auto":
            return self.mode
        return "process" if self.jobs > 1 else "serial"

    def _ensure_pool(self) -> Optional[object]:
        """The warm pool, creating it on demand; None means run serially.

        Creation failures degrade process → thread → serial and are
        counted as ``executor.pool_fallbacks``.
        """
        mode = self._effective_mode()
        if mode == "serial":
            return None
        tracer = current_tracer()
        if self._pool is not None:
            tracer.add("executor.pool_reuse")
            return self._pool
        import concurrent.futures as futures

        if mode == "process":
            try:
                self._pool = futures.ProcessPoolExecutor(
                    max_workers=self.jobs)
                self._pool_kind = "process"
                return self._pool
            except (OSError, ValueError, ImportError):
                tracer.add("executor.pool_fallbacks")
                mode = "thread"
        if mode == "thread":
            try:
                self._pool = futures.ThreadPoolExecutor(
                    max_workers=self.jobs)
                self._pool_kind = "thread"
                return self._pool
            except (OSError, ValueError):
                tracer.add("executor.pool_fallbacks")
        return None

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_kind = None

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def pool_kind(self) -> Optional[str]:
        """``"process"``/``"thread"`` once a pool exists, else None."""
        return self._pool_kind

    # -- the batch entry point ------------------------------------------
    def run(self, queries: Iterable[BatchQueryLike], *,
            deadline: Optional[float] = None,
            max_steps: Optional[int] = None,
            collect_stats: bool = True,
            session: Optional["SchemaSession"] = None) -> list[QueryOutcome]:
        """Answer a batch; outcomes come back in input order.

        ``deadline``/``max_steps`` override the executor defaults for this
        batch (each query gets a *fresh* budget of that size).  ``session``
        optionally names a warm :class:`~repro.engine.session.SchemaSession`
        to answer serial shards through, so in-process execution reuses its
        pipeline cache.

        Failure isolation: a query that cannot even be coerced, a schema
        that does not parse, a budget that trips, an internal error — each
        becomes an error-carrying :class:`QueryOutcome`; the batch always
        returns exactly one outcome per input query.
        """
        deadline = deadline if deadline is not None else self.deadline
        max_steps = max_steps if max_steps is not None else self.max_steps
        tracer = current_tracer()

        outcomes: dict[int, QueryOutcome] = {}
        shards = self._shard(queries, outcomes, deadline, max_steps,
                             collect_stats, session)
        tracer.add("executor.tasks_dispatched",
                   len(outcomes) + sum(len(p.queries) for p in shards))
        tracer.add("executor.shards", len(shards))

        # In-process shards answer through the session's warm LRU.
        serial = (_shard_reasoner if session is None
                  else lambda payload: session.reasoner(payload.schema))
        pool = self._ensure_pool() if shards else None
        if pool is None:
            for payload in shards:
                for outcome in _answer_shard(payload, serial):
                    outcomes[outcome.index] = outcome
        else:
            import concurrent.futures as futures

            pending = {pool.submit(_answer_shard, payload, _shard_reasoner):
                       payload for payload in shards}
            for future in futures.as_completed(pending):
                payload = pending[future]
                try:
                    shard_outcomes = future.result()
                except CarError as exc:
                    shard_outcomes = _shard_failed(payload, exc)
                except Exception:
                    # A broken pool (killed worker, unpicklable payload,
                    # missing fork support) — degrade to in-process
                    # execution for this shard rather than fail the batch.
                    tracer.add("executor.pool_fallbacks")
                    shard_outcomes = _answer_shard(payload, serial)
                for outcome in shard_outcomes:
                    outcomes[outcome.index] = outcome

        results = [outcomes[index] for index in sorted(outcomes)]
        tracer.add("executor.tasks_completed",
                   sum(1 for o in results if o.ok))
        tracer.add("executor.tasks_timed_out",
                   sum(1 for o in results if o.timed_out))
        tracer.add("executor.tasks_failed",
                   sum(1 for o in results if not o.ok and not o.timed_out))
        tracer.add("executor.budget_checks",
                   sum(o.steps for o in results))
        return results

    # -- internals ------------------------------------------------------
    def _shard(self, queries: Iterable[BatchQueryLike],
               outcomes: dict[int, QueryOutcome],
               deadline: Optional[float], max_steps: Optional[int],
               collect_stats: bool,
               session: Optional["SchemaSession"] = None
               ) -> list[_ShardPayload]:
        """Coerce and group queries by schema fingerprint.

        Queries that fail to coerce (bad shape, unparseable schema or
        formula) are deposited straight into ``outcomes`` — they never
        reach a worker.  When a ``session`` is given and the shards are
        headed for a pool, each payload is stamped with the session's
        precompiled snapshot of its schema (only if one is already warm —
        cold schemas are cheaper to build in the worker than to build in
        the parent and ship).
        """
        from .session import _as_schema, schema_fingerprint

        grouped: dict[str, tuple[Schema, list[tuple[int, Formula]]]] = {}
        # One parse per distinct source text: queries repeat their schema,
        # and a source that fails to parse keeps its error.
        parsed: dict[str, Union[Schema, CarError]] = {}
        for index, raw in enumerate(queries):
            try:
                query = BatchQuery.coerce(raw)
                schema = query.schema
                if isinstance(schema, str):
                    if schema not in parsed:
                        try:
                            parsed[schema] = _as_schema(schema)
                        except CarError as exc:
                            parsed[schema] = exc
                    schema = parsed[schema]
                    if isinstance(schema, CarError):
                        raise schema
                fingerprint = schema_fingerprint(schema)
            except CarError as exc:
                outcomes[index] = QueryOutcome(
                    index, None, QueryError.from_exception(exc))
                continue
            if fingerprint not in grouped:
                grouped[fingerprint] = (schema, [])
            grouped[fingerprint][1].append((index, query.formula))
        attach = session is not None and self._effective_mode() != "serial"
        return [
            _ShardPayload(schema, fingerprint, tuple(members),
                          self.config, deadline, max_steps, collect_stats,
                          artifact=(session.peek_compiled(fingerprint)
                                    if attach else None))
            for fingerprint, (schema, members) in grouped.items()
        ]


def _answer_with_reasoner(reasoner, index: int, formula: Formula,
                          deadline: Optional[float],
                          max_steps: Optional[int], collect_stats: bool,
                          fingerprint: Optional[str]) -> QueryOutcome:
    """One budgeted, failure-isolated query against a warm reasoner (the
    per-query step of :func:`_answer_shard`)."""
    budgeted = deadline is not None or max_steps is not None
    budget = Budget(deadline, max_steps) if budgeted else NULL_BUDGET
    start = time.perf_counter()
    verdict: Optional[bool] = None
    error: Optional[QueryError] = None
    try:
        with use_budget(budget):
            verdict = reasoner.is_formula_satisfiable(formula)
    except CarError as exc:
        error = QueryError.from_exception(exc)
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        error = QueryError.from_exception(exc)
    duration = time.perf_counter() - start
    stats = reasoner.stats() if error is None and collect_stats else None
    return QueryOutcome(index, verdict, error, duration, budget.steps,
                        stats, fingerprint)
