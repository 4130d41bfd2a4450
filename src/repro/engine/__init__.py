"""The engine layer: pipeline configuration, staged artifacts, sessions.

``core``/``expansion``/``linear`` implement the paper's mathematics; the
engine layer turns them into a configurable, reusable machine:

* :class:`~repro.engine.config.EngineConfig` — every pipeline knob in one
  frozen value;
* :class:`~repro.engine.pipeline.Pipeline` — the staged decision procedure
  (tables → expansion → Ψ_S → support) with uniform lazy construction and
  per-stage timing;
* :class:`~repro.engine.session.SchemaSession` — fingerprint-keyed caching
  of warm pipelines plus batched query entry points;
* :class:`~repro.engine.executor.BatchExecutor` — parallel, budgeted batch
  answering across schema-fingerprint shards, yielding typed
  :class:`~repro.engine.executor.QueryOutcome` results;
* :class:`~repro.engine.artifact.CompiledSchema` /
  :class:`~repro.engine.artifact.ArtifactCache` — versioned, picklable
  snapshots of the Phase-1/Phase-2 stage products and their
  fingerprint-keyed disk cache, so pool workers and cold process starts
  rehydrate instead of rebuilding.

:class:`~repro.reasoner.satisfiability.Reasoner` is a thin query façade
over a pipeline; the CLI and benchmarks go through sessions.
"""

from .artifact import (ARTIFACT_SCHEMA_VERSION, ArtifactCache,
                       CompiledSchema, config_fingerprint,
                       default_artifact_dir)
from .config import EngineConfig
from .delta import RevalidationReport, SchemaDelta
from .executor import BatchExecutor, BatchQuery, QueryError, QueryOutcome
from .pipeline import Pipeline, PipelineStage
from .session import SchemaSession, schema_fingerprint

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactCache",
    "BatchExecutor",
    "BatchQuery",
    "CompiledSchema",
    "EngineConfig",
    "Pipeline",
    "PipelineStage",
    "QueryError",
    "QueryOutcome",
    "RevalidationReport",
    "SchemaDelta",
    "SchemaSession",
    "config_fingerprint",
    "default_artifact_dir",
    "schema_fingerprint",
]
