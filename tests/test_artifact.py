"""Precompiled pipeline artifacts: snapshot, disk cache, failure modes.

Three layers of coverage:

* the :class:`~repro.engine.artifact.CompiledSchema` snapshot itself —
  pickle round-trips, rehydration skips Phase 1, verdict equivalence
  against a freshly built pipeline (the differential acceptance bar);
* the :class:`~repro.engine.artifact.ArtifactCache` — hit/miss/stale
  counters, atomic writes, and the failure modes that must degrade to a
  rebuild (corrupt file, truncated pickle, version mismatch, config
  mismatch, concurrent writer racing a reader) — never a wrong verdict,
  never a crash;
* the integration surfaces — session miss path, executor payload
  shipping, ``repro compile`` and the ``--artifact-dir`` /
  ``--no-artifact-cache`` flags.
"""

import json
import pickle
import threading

import pytest

from repro.cli import main
from repro.engine import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactCache,
    CompiledSchema,
    EngineConfig,
    Pipeline,
    SchemaSession,
    config_fingerprint,
    schema_fingerprint,
)
from repro.engine.artifact import default_artifact_dir
from repro.parser.parser import parse_schema
from repro.parser.printer import render_schema
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import adversarial_schema, random_schema

SCHEMA = """
class Person endclass
class Student isa Person and not Professor endclass
class Professor isa Person endclass
"""


def fresh_cache(tmp_path, **config_kwargs):
    config = EngineConfig(artifact_dir=str(tmp_path / "cache"),
                          **config_kwargs)
    return config, ArtifactCache.from_config(config)


def compile_schema(source, config):
    return Pipeline(parse_schema(source), config).compile()


class TestCompiledSchema:
    def test_snapshot_fields_and_version(self, tmp_path):
        config, _ = fresh_cache(tmp_path)
        artifact = compile_schema(SCHEMA, config)
        assert artifact.schema_version == ARTIFACT_SCHEMA_VERSION
        assert artifact.fingerprint == schema_fingerprint(SCHEMA)
        assert artifact.config_fingerprint == config_fingerprint(config)
        assert artifact.system.n_unknowns() > 0
        assert artifact.summary()["classes"] == 3

    def test_pickle_round_trip(self, tmp_path):
        config, _ = fresh_cache(tmp_path)
        artifact = compile_schema(SCHEMA, config)
        clone = pickle.loads(pickle.dumps(artifact))
        assert clone.fingerprint == artifact.fingerprint
        assert clone.system.size() == artifact.system.size()
        assert clone.expansion.compound_classes == \
            artifact.expansion.compound_classes

    def test_rehydrated_pipeline_skips_phase_one(self, tmp_path):
        config, _ = fresh_cache(tmp_path)
        artifact = compile_schema(SCHEMA, config)
        pipeline = Pipeline.from_artifact(artifact)
        assert pipeline.built_stages() == ("tables", "expansion", "system")
        # Only the support stage should run on first query.
        pipeline.support
        assert set(pipeline.timer.readings()) == {"support"}

    def test_config_fingerprint_tracks_enumeration_knobs_only(self):
        base = EngineConfig()
        assert config_fingerprint(base) == config_fingerprint(
            base.replace(lp_backend="exact-sparse", use_propagation=False,
                         merge_columns=False, session_cache_limit=5))
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(strategy="naive"))
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(size_limit=100))

    def test_from_artifact_rejects_mismatched_config(self, tmp_path):
        from repro.core.errors import ReasoningError

        config, _ = fresh_cache(tmp_path)
        artifact = compile_schema(SCHEMA, config)
        with pytest.raises(ReasoningError):
            Pipeline.from_artifact(artifact, config.replace(strategy="naive"))
        with pytest.raises(ReasoningError):
            Pipeline.from_artifact("not an artifact")


class TestDifferentialEquivalence:
    """Artifact-rehydrated pipelines answer exactly like fresh ones."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_schema_verdicts_identical(self, tmp_path, seed):
        config, cache = fresh_cache(tmp_path)
        schema = random_schema(6, seed=seed)
        fresh = Reasoner(schema, config=config)
        cache.store(fresh.pipeline.compile())
        loaded = cache.load(schema_fingerprint(schema), config)
        assert loaded is not None
        rehydrated = Reasoner.from_pipeline(Pipeline.from_artifact(loaded))
        for name in sorted(schema.class_symbols):
            assert (fresh.is_satisfiable(name)
                    == rehydrated.is_satisfiable(name)), name

    def test_formula_queries_including_augmented_path(self, tmp_path):
        config, cache = fresh_cache(tmp_path)
        schema = adversarial_schema(10, seed=3)
        fresh = Reasoner(schema, config=config)
        cache.store(fresh.pipeline.compile())
        loaded = cache.load(schema_fingerprint(schema), config)
        rehydrated = Reasoner.from_pipeline(Pipeline.from_artifact(loaded))
        names = sorted(schema.class_symbols)
        # Conjunctions across classes exercise the cross-cluster
        # (augmented) machinery on top of the rehydrated stages.
        from repro.parser.parser import parse_formula

        formulas = [names[0], f"{names[0]} and {names[1]}",
                    f"{names[0]} and not {names[-1]}"]
        for source in formulas:
            formula = parse_formula(source)
            assert (fresh.is_formula_satisfiable(formula)
                    == rehydrated.is_formula_satisfiable(formula)), source

    def test_stats_sizes_identical(self, tmp_path):
        config, cache = fresh_cache(tmp_path)
        fresh = Reasoner(parse_schema(SCHEMA), config=config)
        cache.store(fresh.pipeline.compile())
        loaded = cache.load(schema_fingerprint(SCHEMA), config)
        rehydrated = Reasoner.from_pipeline(Pipeline.from_artifact(loaded))
        a, b = fresh.stats(), rehydrated.stats()
        assert (a.compound_classes, a.psi_unknowns, a.psi_constraints,
                a.supported) == (b.compound_classes, b.psi_unknowns,
                                 b.psi_constraints, b.supported)


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        config, cache = fresh_cache(tmp_path)
        fingerprint = schema_fingerprint(SCHEMA)
        assert cache.load(fingerprint, config) is None
        assert cache.store(compile_schema(SCHEMA, config)) is True
        assert cache.load(fingerprint, config) is not None

    def test_counters(self, tmp_path):
        from repro.obs.tracer import Tracer, use_tracer

        tracer = Tracer()
        config, cache = fresh_cache(tmp_path)
        fingerprint = schema_fingerprint(SCHEMA)
        artifact = compile_schema(SCHEMA, config)
        with use_tracer(tracer):
            cache.load(fingerprint, config)
            cache.store(artifact)
            cache.load(fingerprint, config)
        assert tracer.counter("artifact.miss") == 1
        assert tracer.counter("artifact.save") == 1
        assert tracer.counter("artifact.hit") == 1
        assert tracer.counter("artifact.load") == 1

    def test_corrupted_file_falls_back_to_rebuild(self, tmp_path):
        config, cache = fresh_cache(tmp_path)
        fingerprint = schema_fingerprint(SCHEMA)
        cache.store(compile_schema(SCHEMA, config))
        path = cache.path_for(fingerprint, config_fingerprint(config))
        path.write_bytes(b"this is not a pickle")
        assert cache.load(fingerprint, config) is None
        assert not path.exists()  # the corrupt entry was discarded

    def test_truncated_pickle_falls_back_to_rebuild(self, tmp_path):
        config, cache = fresh_cache(tmp_path)
        fingerprint = schema_fingerprint(SCHEMA)
        cache.store(compile_schema(SCHEMA, config))
        path = cache.path_for(fingerprint, config_fingerprint(config))
        path.write_bytes(path.read_bytes()[:40])
        assert cache.load(fingerprint, config) is None

    def test_version_mismatch_is_stale(self, tmp_path, monkeypatch):
        config, cache = fresh_cache(tmp_path)
        fingerprint = schema_fingerprint(SCHEMA)
        artifact = compile_schema(SCHEMA, config)
        cache.store(artifact)
        # A future engine bumps the version: the old file must read as
        # stale, not load into the new engine.
        monkeypatch.setattr("repro.engine.artifact.ARTIFACT_SCHEMA_VERSION",
                            ARTIFACT_SCHEMA_VERSION + 1)
        assert cache.load(fingerprint, config) is None
        # And the bumped-version engine writes alongside without clashing.
        path_new = cache.path_for(fingerprint, config_fingerprint(config))
        assert f".v{ARTIFACT_SCHEMA_VERSION + 1}." in path_new.name

    def test_config_mismatch_is_a_miss(self, tmp_path):
        config, cache = fresh_cache(tmp_path)
        fingerprint = schema_fingerprint(SCHEMA)
        cache.store(compile_schema(SCHEMA, config))
        naive = config.replace(strategy="naive")
        # Different enumeration knobs key a different file — no crossload.
        assert cache.load(fingerprint, naive) is None
        assert cache.load(fingerprint, config) is not None

    def test_wrong_fingerprint_inside_file_is_stale(self, tmp_path):
        config, cache = fresh_cache(tmp_path)
        artifact = compile_schema(SCHEMA, config)
        other = schema_fingerprint("class Z endclass")
        # Simulate a renamed/misplaced file: content disagrees with key.
        path = cache.path_for(other, config_fingerprint(config))
        cache.directory.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(artifact))
        assert cache.load(other, config) is None

    def test_concurrent_writer_racing_readers(self, tmp_path):
        """Readers hammering the key while a writer stores repeatedly see
        either a miss or a complete artifact — never an exception."""
        config, cache = fresh_cache(tmp_path)
        fingerprint = schema_fingerprint(SCHEMA)
        artifact = compile_schema(SCHEMA, config)
        failures: list = []
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                cache.store(artifact)

        def reader():
            for _ in range(300):
                try:
                    loaded = cache.load(fingerprint, config)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    failures.append(exc)
                    return
                if loaded is not None \
                        and loaded.fingerprint != fingerprint:
                    failures.append("wrong artifact")
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)]
        for thread in threads[1:]:
            thread.start()
        threads[0].start()
        for thread in threads[1:]:
            thread.join()
        stop.set()
        threads[0].join()
        assert not failures

    def test_store_failure_is_quiet(self, tmp_path):
        config = EngineConfig(artifact_dir=str(tmp_path / "blocked"))
        cache = ArtifactCache.from_config(config)
        (tmp_path / "blocked").write_text("a file, not a directory")
        assert cache.store(compile_schema(SCHEMA, config)) is False

    def test_from_config_disabled_by_default(self):
        assert ArtifactCache.from_config(EngineConfig()) is None

    def test_default_artifact_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "/tmp/somewhere")
        assert default_artifact_dir() == "/tmp/somewhere"
        monkeypatch.delenv("REPRO_ARTIFACT_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
        assert default_artifact_dir() == "/tmp/xdg/repro"


class TestSessionIntegration:
    def test_miss_persists_and_second_session_rehydrates(self, tmp_path):
        from repro.obs.tracer import Tracer, use_tracer

        config = EngineConfig(artifact_dir=str(tmp_path / "cache"))
        first, second = Tracer(), Tracer()
        with SchemaSession(config) as session, use_tracer(first):
            assert session.satisfiable(SCHEMA, "Student") is True
        assert first.counters.get("artifact.save") == 1
        assert first.counters.get("artifact.hit") is None
        with SchemaSession(config) as session, use_tracer(second):
            assert session.satisfiable(SCHEMA, "Student") is True
        assert second.counters.get("artifact.hit") == 1
        # Rehydration pre-populates Phase 1/2; no expansion span ran.
        assert second.span_count("pipeline.expansion") == 0

    def test_lazy_reasoner_does_not_persist_until_system_builds(
            self, tmp_path):
        from repro.obs.tracer import Tracer, use_tracer

        config = EngineConfig(artifact_dir=str(tmp_path / "cache"))
        tracer = Tracer()
        with SchemaSession(config) as session, use_tracer(tracer):
            session.reasoner(SCHEMA)  # lazy: no stage built yet
        assert tracer.counter("artifact.save") == 0

    def test_peek_compiled(self, tmp_path):
        config = EngineConfig(artifact_dir=str(tmp_path / "cache"))
        fingerprint = schema_fingerprint(SCHEMA)
        with SchemaSession(config) as session:
            assert session.peek_compiled(fingerprint) is None  # not cached
            session.reasoner(SCHEMA)
            assert session.peek_compiled(fingerprint) is None  # still lazy
            session.satisfiable(SCHEMA, "Student")
            snapshot = session.peek_compiled(fingerprint)
            assert isinstance(snapshot, CompiledSchema)
            assert snapshot.fingerprint == fingerprint

    def test_augmented_queries_do_not_pollute_the_cache(self, tmp_path):
        """Cross-cluster formula queries build augmented pipelines; only
        the base schema's snapshot may be persisted."""
        from repro.parser.parser import parse_formula

        config = EngineConfig(artifact_dir=str(tmp_path / "cache"))
        schema = adversarial_schema(10, seed=1)
        names = sorted(schema.class_symbols)
        with SchemaSession(config) as session:
            session.check_many(render_schema(schema),
                               [parse_formula(f"{names[0]} and {names[1]}")])
        cache_dir = tmp_path / "cache"
        stored = list(cache_dir.glob("*.pkl"))
        assert len(stored) == 1
        assert stored[0].name.startswith(schema_fingerprint(schema))

    def test_run_batch_modes_agree_with_artifacts_enabled(self, tmp_path):
        config = EngineConfig(artifact_dir=str(tmp_path / "cache"))
        queries = []
        for index in range(3):
            schema = adversarial_schema(9, seed=index)
            queries.append({"schema": render_schema(schema),
                            "formula": sorted(schema.class_symbols)[0]})
        with SchemaSession(config) as session:
            serial = session.run_batch(queries, jobs=1, mode="serial")
            threaded = session.run_batch(queries, jobs=2, mode="thread")
            processed = session.run_batch(queries, jobs=2, mode="process")
        assert ([o.verdict for o in serial]
                == [o.verdict for o in threaded]
                == [o.verdict for o in processed])
        assert all(o.ok for o in serial + threaded + processed)

    def test_executor_ships_warm_artifact_to_payload(self, tmp_path):
        from repro.engine.executor import BatchExecutor

        config = EngineConfig(artifact_dir=str(tmp_path / "cache"))
        fingerprint = schema_fingerprint(SCHEMA)
        with SchemaSession(config) as session:
            session.satisfiable(SCHEMA, "Student")  # warm the pipeline
            executor = BatchExecutor(config, jobs=2, mode="process")
            payloads = executor._shard(
                [{"schema": SCHEMA, "formula": "Student"}], {}, None, None,
                True, session)
            assert len(payloads) == 1
            assert isinstance(payloads[0].artifact, CompiledSchema)
            assert payloads[0].artifact.fingerprint == fingerprint
            # Serial destinations never pay the compile/pickle cost.
            serial = BatchExecutor(config, jobs=1, mode="serial")
            payloads = serial._shard(
                [{"schema": SCHEMA, "formula": "Student"}], {}, None, None,
                True, session)
            assert payloads[0].artifact is None

    def test_corrupt_cache_entry_never_changes_session_verdict(
            self, tmp_path):
        config = EngineConfig(artifact_dir=str(tmp_path / "cache"))
        fingerprint = schema_fingerprint(SCHEMA)
        with SchemaSession(config) as session:
            expected = session.satisfiable(SCHEMA, "Student")
        cache = ArtifactCache.from_config(config)
        path = cache.path_for(fingerprint, config_fingerprint(config))
        path.write_bytes(b"\x80garbage")
        with SchemaSession(config) as session:
            assert session.satisfiable(SCHEMA, "Student") == expected


class TestCompileCommand:
    @pytest.fixture
    def schemas_file(self, tmp_path):
        schema_path = tmp_path / "one.car"
        schema_path.write_text(SCHEMA)
        lines = [json.dumps({"schema": "class C isa not C endclass"}),
                 json.dumps({"path": str(schema_path)})]
        path = tmp_path / "schemas.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_compile_builds_then_caches(self, schemas_file, tmp_path,
                                        capsys):
        art_dir = str(tmp_path / "cache")
        assert main(["compile", schemas_file,
                     "--artifact-dir", art_dir]) == 0
        first = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines()]
        assert [r["status"] for r in first] == ["built", "built"]
        assert main(["compile", schemas_file,
                     "--artifact-dir", art_dir]) == 0
        second = [json.loads(line) for line
                  in capsys.readouterr().out.splitlines()]
        assert [r["status"] for r in second] == ["cached", "cached"]

    def test_compile_force_rebuilds(self, schemas_file, tmp_path, capsys):
        art_dir = str(tmp_path / "cache")
        assert main(["compile", schemas_file,
                     "--artifact-dir", art_dir]) == 0
        capsys.readouterr()
        assert main(["compile", schemas_file, "--force",
                     "--artifact-dir", art_dir]) == 0
        forced = [json.loads(line) for line
                  in capsys.readouterr().out.splitlines()]
        assert [r["status"] for r in forced] == ["built", "built"]

    def test_compile_json_summary(self, schemas_file, tmp_path, capsys):
        assert main(["compile", schemas_file, "--json",
                     "--artifact-dir", str(tmp_path / "cache")]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["built"] == 2
        assert document["summary"]["failed"] == 0

    def test_compile_reports_bad_lines(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "class Broken isa endclass"}\n'
                        '{"schema": "class OK endclass"}\n')
        code = main(["compile", str(path),
                     "--artifact-dir", str(tmp_path / "cache")])
        assert code == 65
        results = [json.loads(line) for line
                   in capsys.readouterr().out.splitlines()]
        assert results[0]["status"] == "failed"
        assert results[1]["status"] == "built"

    def test_compile_requires_a_cache(self, schemas_file, capsys):
        assert main(["compile", schemas_file, "--no-artifact-cache"]) == 2
        assert "artifact cache" in capsys.readouterr().err

    def test_satisfiable_uses_precompiled_artifact(self, tmp_path, capsys):
        schema_path = tmp_path / "s.car"
        schema_path.write_text(SCHEMA)
        listing = tmp_path / "schemas.jsonl"
        listing.write_text(json.dumps({"path": str(schema_path)}) + "\n")
        art_dir = str(tmp_path / "cache")
        assert main(["compile", str(listing),
                     "--artifact-dir", art_dir]) == 0
        capsys.readouterr()
        assert main(["satisfiable", str(schema_path), "Student",
                     "--artifact-dir", art_dir, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "artifact.hit = 1" in captured.err

    def test_no_artifact_cache_flag_stays_cold(self, tmp_path, capsys):
        schema_path = tmp_path / "s.car"
        schema_path.write_text(SCHEMA)
        for _ in range(2):
            assert main(["satisfiable", str(schema_path), "Student",
                         "--no-artifact-cache", "--profile"]) == 0
            captured = capsys.readouterr()
            assert "artifact." not in captured.err
