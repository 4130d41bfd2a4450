"""Spawn-context pickling: the executor's payloads must survive spawn.

The process pool uses whatever start method the platform defaults to —
``fork`` on Linux, ``spawn`` on macOS and Windows.  Under ``spawn`` the
child starts from a fresh interpreter and everything crossing the
boundary is pickled: the worker function by qualified name, its argument,
and its return value.  These tests round-trip the three types that
actually cross — :class:`~repro.engine.artifact.CompiledSchema`,
:class:`~repro.engine.executor.QueryOutcome`, and
:class:`~repro.engine.config.EngineConfig` — through a real
``spawn``-context pool, so a field that silently became unpicklable
(a lock, a tracer, a lambda) fails here instead of on someone's laptop.
"""

import multiprocessing

import pytest

from repro.engine import EngineConfig, Pipeline
from repro.engine.artifact import _spawn_echo
from repro.engine.executor import QueryError, QueryOutcome
from repro.engine.stats import PipelineStats
from repro.parser.parser import parse_schema

SCHEMA = """
class Person endclass
class Student isa Person and not Professor endclass
class Professor isa Person endclass
"""


@pytest.fixture(scope="module")
def spawn_pool():
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    try:
        pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
    except (OSError, ValueError) as exc:  # pragma: no cover - sandboxes
        pytest.skip(f"cannot create a spawn-context pool: {exc}")
    with pool:
        # One warm-up round trip so per-test timings exclude interpreter
        # startup (and so an unusable pool skips instead of failing).
        try:
            pool.submit(_spawn_echo, 1).result(timeout=120)
        except Exception as exc:  # pragma: no cover - sandboxes
            pytest.skip(f"spawn-context pool is unusable here: {exc}")
        yield pool


def spawn_round_trip(pool, value):
    return pool.submit(_spawn_echo, value).result(timeout=120)


def test_compiled_schema_round_trips_under_spawn(spawn_pool):
    artifact = Pipeline(parse_schema(SCHEMA), EngineConfig()).compile()
    clone = spawn_round_trip(spawn_pool, artifact)
    assert clone.fingerprint == artifact.fingerprint
    assert clone.config_fingerprint == artifact.config_fingerprint
    assert clone.system.size() == artifact.system.size()
    # The clone is a working snapshot, not just structurally equal bytes:
    # a rehydrated pipeline must reach a support verdict.
    pipeline = Pipeline.from_artifact(clone)
    assert pipeline.support.support is not None


def test_query_outcome_round_trips_under_spawn(spawn_pool):
    outcome = QueryOutcome(
        index=3, verdict=None,
        error=QueryError("BudgetExceeded", "deadline", 75, steps=12),
        duration=0.5, steps=12,
        stats=PipelineStats(classes=2, schema_size=4, compound_classes=3,
                            expansion_size=9, psi_unknowns=3,
                            psi_constraints=2, psi_size=7, lp_rounds=1,
                            supported=3, timings={"support": 0.1}),
        schema_fingerprint="ff" * 32)
    clone = spawn_round_trip(spawn_pool, outcome)
    assert clone == outcome
    assert clone.timed_out and clone.error.exit_code == 75


def test_engine_config_round_trips_under_spawn(spawn_pool, tmp_path):
    config = EngineConfig(strategy="strategic", size_limit=500,
                          lp_backend="exact-sparse",
                          artifact_dir=str(tmp_path / "cache"))
    clone = spawn_round_trip(spawn_pool, config)
    assert clone == config
    assert clone.artifact_dir == config.artifact_dir


def test_sparse_backend_config_round_trips_under_spawn(spawn_pool):
    """The sparse backend crosses the spawn boundary the same way every
    backend does: as its registry name inside EngineConfig, revalidated by
    the child's ``__post_init__``."""
    for spec in ("exact-sparse", "auto"):
        config = EngineConfig(lp_backend=spec)
        clone = spawn_round_trip(spawn_pool, config)
        assert clone == config
        assert clone.lp_backend == spec


def test_sparse_backend_instance_round_trips_under_spawn(spawn_pool):
    """The backend object itself is stateless and must pickle too — the
    executor's shard payloads may embed resolved backends."""
    from repro.linear.backends import SparseExactBackend

    clone = spawn_round_trip(spawn_pool, SparseExactBackend())
    assert clone.name == "exact-sparse"
    assert clone.capabilities().closed_form
