"""The multi-tenant schema registry: quotas, versioning, HTTP, CLI."""

import json
import threading

import pytest

from repro.core.errors import (RegistryError, RegistryNotFound,
                               RegistryQuotaError, RegistrySizeError)
from repro.engine import EngineConfig, SchemaSession
from repro.registry import RegistryConfig, SchemaRegistry
from repro.service.app import ReproService, ServiceConfig
from repro.service.http import status_for_exit_code
from tests.wire import check_envelope, unwrap

SCHEMA_V1 = "class A isa B endclass class B endclass"
SCHEMA_V2 = "class A isa B and C endclass class B endclass class C endclass"
SCHEMA_V3 = "class A isa not A endclass"


@pytest.fixture()
def registry():
    return SchemaRegistry(SchemaSession(), RegistryConfig(
        max_schemas_per_tenant=3, max_versions_per_schema=3,
        max_schema_source_bytes=10_000, max_total_source_bytes=50_000))


# ----------------------------------------------------------------------
# Core registry behavior
# ----------------------------------------------------------------------
class TestPut:
    def test_versions_are_monotonic(self, registry):
        v1, r1 = registry.put("inv", SCHEMA_V1)
        v2, r2 = registry.put("inv", SCHEMA_V2)
        assert (v1.version, v2.version) == (1, 2)
        assert r1.mode == "fresh"
        assert r2.mode == "delta"
        assert v2.revalidation["mode"] == "delta"

    def test_identical_source_is_deduplicated(self, registry):
        v1, _ = registry.put("inv", SCHEMA_V1)
        v2, report = registry.put("inv", SCHEMA_V1)
        assert v2.version == v1.version
        assert report.mode == "unchanged"
        assert len(registry.versions("inv")) == 1

    def test_reordered_source_is_the_same_version(self, registry):
        registry.put("inv", SCHEMA_V1)
        _, report = registry.put(
            "inv", "class B endclass class A isa B endclass")
        assert report.mode == "unchanged"

    def test_each_put_parses_and_renders_once(self, tmp_path, count_calls):
        """The registry hands the session the schema it parsed, and every
        layer reads the fingerprint stored on it: one parse and one
        canonical render per PUT, the artifact's fingerprint included.
        A version keeps that schema, so reads by ref do neither."""
        from repro.parser.parser import parse_schema
        from repro.parser.printer import render_schema

        two_clusters = (
            "class A isa B or C endclass class B endclass "
            "class C isa not B endclass class X isa Y or Z endclass "
            "class Y endclass class Z endclass")
        sources = [
            two_clusters,
            two_clusters.replace("X isa Y or Z", "X isa Y and not Z"),
            two_clusters,
            two_clusters.replace("C isa not B", "C isa B"),
        ]
        registry = SchemaRegistry(SchemaSession(
            EngineConfig(artifact_dir=str(tmp_path))))
        parses = count_calls(parse_schema)
        renders = count_calls(render_schema)
        modes = [registry.put("inv", source)[1].mode for source in sources]
        assert modes == ["fresh", "delta", "delta", "delta"]
        assert len(parses) == len(renders) == len(sources)
        # A re-put source shares the stored version's schema object.
        assert registry.get("inv", version=3).schema is \
            registry.get("inv", version=1).schema
        for ref in ("inv@1", "inv@2", "inv", "inv@4") * 3:
            assert registry.reasoner(ref).is_satisfiable("A")
        registry.session.invalidate()  # the next read loads the artifact
        assert registry.reasoner("inv@2").is_satisfiable("X")
        assert len(parses) == len(renders) == len(sources)

    def test_put_rejects_bad_names(self, registry):
        for bad in ("", "a@b", "a/b", "x" * 200, 7):
            with pytest.raises(RegistryError):
                registry.put(bad, SCHEMA_V1)
        with pytest.raises(RegistryError):
            registry.put("ok", SCHEMA_V1, tenant="bad tenant")
        with pytest.raises(RegistryError):
            registry.put("ok", "   ")

    def test_tenants_are_isolated(self, registry):
        registry.put("inv", SCHEMA_V1, tenant="acme")
        registry.put("inv", SCHEMA_V3, tenant="globex")
        assert registry.get("inv", tenant="acme").source == SCHEMA_V1
        assert registry.get("inv", tenant="globex").source == SCHEMA_V3
        with pytest.raises(RegistryNotFound):
            registry.get("inv")


class TestQuotas:
    def test_schema_count_quota(self, registry):
        for i in range(3):
            registry.put(f"s{i}", SCHEMA_V1)
        with pytest.raises(RegistryQuotaError):
            registry.put("s3", SCHEMA_V1)
        # revising an existing name is not a new schema
        registry.put("s0", SCHEMA_V2)

    def test_source_size_quota(self, registry):
        with pytest.raises(RegistrySizeError):
            registry.put("big", "class A endclass " + " " * 20_000)

    def test_total_size_quota(self):
        registry = SchemaRegistry(SchemaSession(), RegistryConfig(
            max_schema_source_bytes=10_000, max_total_source_bytes=25_000))
        padded = SCHEMA_V1 + " " * 9_900
        with pytest.raises(RegistrySizeError):
            for i in range(4):
                registry.put(f"s{i}", padded + f" class X{i} endclass")

    def test_inflight_quota(self, registry):
        registry._inflight["default"] = \
            registry.config.max_inflight_revalidations
        try:
            with pytest.raises(RegistryQuotaError):
                registry.put("inv", SCHEMA_V1)
        finally:
            registry._inflight.clear()
        registry.put("inv", SCHEMA_V1)

    def test_inflight_slot_is_released_on_failure(self, registry):
        with pytest.raises(Exception):
            registry.put("inv", "class A isa endclass")  # parse error
        assert registry._inflight["default"] == 0


class TestVersionHistory:
    def test_pruning_keeps_depth(self, registry):
        sources = [SCHEMA_V1, SCHEMA_V2, SCHEMA_V3,
                   "class D endclass", "class E endclass"]
        for source in sources:
            registry.put("inv", source)
        versions = [v.version for v in registry.versions("inv")]
        assert versions == [3, 4, 5]

    def test_pinned_versions_survive_pruning(self, registry):
        registry.put("inv", SCHEMA_V1)
        registry.pin("inv", 1)
        for source in (SCHEMA_V2, SCHEMA_V3, "class D endclass"):
            registry.put("inv", source)
        versions = registry.versions("inv")
        assert versions[0].version == 1 and versions[0].pinned

    def test_all_pinned_blocks_the_put(self, registry):
        for source in (SCHEMA_V1, SCHEMA_V2, SCHEMA_V3):
            version, _ = registry.put("inv", source)
            registry.pin("inv", version.version)
        with pytest.raises(RegistryQuotaError):
            registry.put("inv", "class D endclass")
        # the refused put must not have appended
        assert [v.version for v in registry.versions("inv")] == [1, 2, 3]

    def test_unpin(self, registry):
        registry.put("inv", SCHEMA_V1)
        registry.pin("inv", 1)
        assert registry.get("inv", version=1).pinned
        registry.pin("inv", 1, pinned=False)
        assert not registry.get("inv", version=1).pinned

    def test_pin_missing_version(self, registry):
        registry.put("inv", SCHEMA_V1)
        with pytest.raises(RegistryNotFound):
            registry.pin("inv", 9)


class TestResolveAndReads:
    def test_resolve_shapes(self, registry):
        registry.put("inv", SCHEMA_V1)
        registry.put("inv", SCHEMA_V2)
        assert registry.resolve("inv").version == 2
        assert registry.resolve("inv@latest").version == 2
        assert registry.resolve("inv@1").version == 1
        assert registry.resolve("inv@1").ref == "inv@1"

    def test_resolve_rejects_malformed_refs(self, registry):
        registry.put("inv", SCHEMA_V1)
        for bad in ("inv@x", "inv@0", "inv@-1", "", None):
            with pytest.raises(RegistryError):
                registry.resolve(bad)
        with pytest.raises(RegistryNotFound):
            registry.resolve("inv@9")
        with pytest.raises(RegistryNotFound):
            registry.resolve("ghost")

    def test_reasoner_answers_through_the_session(self, registry):
        registry.put("inv", SCHEMA_V2)
        assert registry.reasoner("inv@1").is_satisfiable("A")
        assert "inv" in registry
        assert len(registry) == 1

    def test_list_and_stats(self, registry):
        registry.put("inv", SCHEMA_V1)
        registry.put("inv", SCHEMA_V2)
        registry.put("cat", SCHEMA_V3)
        rows = registry.list()
        assert [row["name"] for row in rows] == ["cat", "inv"]
        assert rows[1]["versions"] == 2
        stats = registry.stats()
        assert stats["schemas"] == 2
        assert stats["versions"] == 3
        assert stats["tenants"]["default"]["source_bytes"] > 0


class TestDelete:
    def test_delete_whole_schema(self, registry):
        registry.put("inv", SCHEMA_V1)
        registry.put("inv", SCHEMA_V2)
        assert registry.delete("inv") == 2
        with pytest.raises(RegistryNotFound):
            registry.get("inv")

    def test_delete_one_version(self, registry):
        registry.put("inv", SCHEMA_V1)
        registry.put("inv", SCHEMA_V2)
        assert registry.delete("inv", version=1) == 1
        assert [v.version for v in registry.versions("inv")] == [2]
        with pytest.raises(RegistryNotFound):
            registry.delete("inv", version=1)

    def test_delete_missing(self, registry):
        with pytest.raises(RegistryNotFound):
            registry.delete("ghost")

    def test_delete_invalidates_the_session(self, registry):
        registry.put("inv", SCHEMA_V1)
        assert SCHEMA_V1 in registry.session
        registry.delete("inv")
        assert SCHEMA_V1 not in registry.session


class TestLiveVersionsStayWarm:
    def test_pruning_a_live_fingerprint_keeps_the_session_entry(self):
        session = SchemaSession()  # no artifact cache: only the LRU helps
        registry = SchemaRegistry(session, RegistryConfig(
            max_versions_per_schema=2))
        registry.put("inv", SCHEMA_V1)
        registry.put("inv", SCHEMA_V2)
        registry.put("inv", SCHEMA_V1)  # v3 revives v1, and v1 is pruned
        assert [v.version for v in registry.versions("inv")] == [2, 3]
        assert SCHEMA_V1 in session
        _, report = registry.put(
            "inv", "class A isa B or C endclass class B endclass "
                   "class C endclass")
        assert report.mode == "delta"

    def test_deleting_a_live_fingerprint_keeps_the_session_entry(self,
                                                                 registry):
        registry.put("inv", SCHEMA_V1)
        registry.put("cat", SCHEMA_V1)
        registry.delete("inv")
        assert SCHEMA_V1 in registry.session
        registry.delete("cat")
        assert SCHEMA_V1 not in registry.session


class TestConcurrency:
    def test_concurrent_puts_stay_monotonic(self):
        registry = SchemaRegistry(SchemaSession(), RegistryConfig(
            max_versions_per_schema=64, max_inflight_revalidations=16))
        failures = []

        def put(i):
            try:
                registry.put("inv", f"class A isa B endclass "
                                    f"class B endclass class X{i} endclass")
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=put, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        versions = [v.version for v in registry.versions("inv")]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
@pytest.fixture()
def service():
    return ReproService(ServiceConfig(registry=RegistryConfig(
        max_schemas_per_tenant=2, max_versions_per_schema=3)))


def call(service, method, path, body=None, headers=None):
    raw = json.dumps(body).encode() if body is not None else b""
    response = service.dispatch(method, path, headers or {}, raw)
    # registry routes speak the same v1 envelope as every other endpoint
    check_envelope(response.payload, status=response.status)
    return response


def data_of(response):
    return unwrap(response.payload, status=response.status)


class TestRegistryEndpoints:
    def test_put_get_versions_list(self, service):
        response = call(service, "PUT", "/v1/schemas/inv",
                        {"schema": SCHEMA_V1})
        assert response.status == 201
        assert data_of(response)["schema"]["ref"] == "inv@1"
        assert data_of(response)["revalidation"]["mode"] == "fresh"
        response = call(service, "PUT", "/v1/schemas/inv",
                        {"schema": SCHEMA_V2})
        assert response.status == 201
        assert data_of(response)["revalidation"]["mode"] == "delta"
        response = call(service, "GET", "/v1/schemas/inv")
        assert response.status == 200
        assert data_of(response)["schema"]["version"] == 2
        response = call(service, "GET", "/v1/schemas/inv/versions")
        assert [v["version"] for v in data_of(response)["versions"]] == [1, 2]
        response = call(service, "GET", "/v1/schemas")
        assert [s["name"] for s in data_of(response)["schemas"]] == ["inv"]

    def test_get_by_version_query_parameter(self, service):
        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V1})
        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V2})
        response = call(service, "GET", "/v1/schemas/inv?version=1")
        assert response.status == 200
        assert data_of(response)["schema"]["ref"] == "inv@1"
        response = call(service, "GET", "/v1/schemas/inv?version=9")
        assert response.status == 404
        assert response.payload["error"]["sysexit"] == 67
        response = call(service, "GET", "/v1/schemas/inv?version=zero")
        assert response.status == 422
        response = call(service, "GET", "/v1/schemas/inv?version=0")
        assert response.status == 422

    def test_unchanged_put_is_200(self, service):
        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V1})
        response = call(service, "PUT", "/v1/schemas/inv",
                        {"schema": SCHEMA_V1})
        assert response.status == 200
        assert data_of(response)["revalidation"]["mode"] == "unchanged"

    def test_query_by_schema_ref(self, service):
        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V2})
        response = call(service, "POST", "/v1/satisfiable",
                        {"schema_ref": "inv@1", "class": "A"})
        assert response.status == 200 and data_of(response)["verdict"]
        response = call(service, "POST", "/v1/classify",
                        {"schema_ref": "inv"})
        assert response.status == 200
        assert ["A", "B"] in data_of(response)["subsumptions"]
        response = call(service, "POST", "/v1/batch", {"queries": [
            {"schema_ref": "inv", "formula": "A"},
            {"schema_ref": "ghost", "formula": "A"},
            {"schema": SCHEMA_V3, "formula": "A"}]})
        assert response.status == 200
        data = data_of(response)
        assert data["summary"]["ok"] == 2
        assert data["summary"]["failed"] == 1
        assert data["outcomes"][1]["error"]["exit_code"] == 67

    def test_reads_by_ref_neither_parse_nor_render(self, service,
                                                   count_calls):
        from repro.parser.parser import parse_schema
        from repro.parser.printer import render_schema

        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V2})
        parses = count_calls(parse_schema)
        renders = count_calls(render_schema)
        ref = {"schema_ref": "inv"}
        for name in ("A", "B", "C"):
            for path, body in (
                    ("/v1/satisfiable", {**ref, "class": name}),
                    ("/v1/query", {**ref, "query": f"q(x) :- {name}(x)"}),
                    ("/v1/classify", ref),
                    ("/v1/batch", {"queries": [{**ref, "formula": name}]})):
                response = call(service, "POST", path, body)
                assert response.status == 200, response.payload
        assert (len(parses), len(renders)) == (0, 0)

    def test_missing_ref_is_404(self, service):
        response = call(service, "POST", "/v1/satisfiable",
                        {"schema_ref": "ghost", "class": "A"})
        assert response.status == 404
        assert response.payload["error"]["sysexit"] == 67
        response = call(service, "GET", "/v1/schemas/ghost")
        assert response.status == 404
        response = call(service, "GET", "/v1/schemas/ghost/versions")
        assert response.status == 404

    def test_quota_breach_is_429_with_retry_after(self, service):
        call(service, "PUT", "/v1/schemas/a", {"schema": SCHEMA_V1})
        call(service, "PUT", "/v1/schemas/b", {"schema": SCHEMA_V1})
        response = call(service, "PUT", "/v1/schemas/c",
                        {"schema": SCHEMA_V1})
        assert response.status == 429
        assert response.payload["error"]["sysexit"] == 69
        assert dict(response.headers).get("Retry-After") == "1"

    def test_size_breach_is_413(self):
        service = ReproService(ServiceConfig(registry=RegistryConfig(
            max_schema_source_bytes=64)))
        response = call(service, "PUT", "/v1/schemas/big",
                        {"schema": SCHEMA_V1 + " " * 200})
        assert response.status == 413
        assert response.payload["error"]["sysexit"] == 77

    def test_tenant_header_scopes_every_route(self, service):
        acme = {"X-Repro-Tenant": "acme"}
        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V1}, acme)
        response = call(service, "GET", "/v1/schemas/inv", headers=acme)
        assert data_of(response)["schema"]["tenant"] == "acme"
        assert call(service, "GET", "/v1/schemas/inv").status == 404
        response = call(service, "POST", "/v1/satisfiable",
                        {"schema_ref": "inv", "class": "A"}, acme)
        assert response.status == 200

    def test_pin_and_delete_routes(self, service):
        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V1})
        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V2})
        response = call(service, "POST", "/v1/schemas/inv/pin",
                        {"version": 1})
        assert response.status == 200
        assert data_of(response)["schema"]["pinned"]
        response = call(service, "POST", "/v1/schemas/inv/pin",
                        {"version": "x"})
        assert response.status == 422
        response = call(service, "DELETE", "/v1/schemas/inv",
                        {"version": 2})
        assert response.status == 200
        assert data_of(response)["removed_versions"] == 1
        response = call(service, "DELETE", "/v1/schemas/inv")
        assert data_of(response)["removed_versions"] == 1

    def test_method_and_route_misses(self, service):
        assert call(service, "PATCH", "/v1/schemas/inv").status == 405
        assert call(service, "PUT", "/v1/schemas").status == 405
        assert call(service, "GET",
                    "/v1/schemas/a/b/c").status == 404
        response = call(service, "PUT", "/v1/schemas/bad@name",
                        {"schema": SCHEMA_V1})
        assert response.status == 422

    def test_metrics_exposes_registry_and_reuse_counters(self, service):
        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V1})
        call(service, "PUT", "/v1/schemas/inv", {"schema": SCHEMA_V2})
        response = call(service, "GET", "/metrics")
        payload = data_of(response)
        assert payload["registry"]["schemas"] == 1
        assert payload["registry"]["tenants"]["default"]["versions"] == 2
        assert payload["counters"]["registry.put"] == 2
        assert "registry.rebuilt" in payload["counters"]


# ----------------------------------------------------------------------
# Typed registry errors: sysexits ↔ HTTP (pinned rows)
# ----------------------------------------------------------------------
class TestRegistryErrorCodes:
    @pytest.mark.parametrize("error_class,exit_code,status", [
        (RegistryError, 65, 422),
        (RegistryNotFound, 67, 404),
        (RegistryQuotaError, 69, 429),
        (RegistrySizeError, 77, 413),
    ])
    def test_exit_codes_and_statuses(self, error_class, exit_code, status):
        assert error_class.exit_code == exit_code
        assert status_for_exit_code(exit_code) == status

    def test_hierarchy(self):
        assert issubclass(RegistrySizeError, RegistryQuotaError)
        assert issubclass(RegistryQuotaError, RegistryError)
        assert issubclass(RegistryNotFound, RegistryError)


# ----------------------------------------------------------------------
# The CLI client, end to end against a live server
# ----------------------------------------------------------------------
class TestRegistryCli:
    @pytest.fixture()
    def live(self):
        service = ReproService(
            ServiceConfig(port=0), EngineConfig(artifact_dir=None))
        host, port = service.start()
        yield f"http://{host}:{port}"
        service.drain(grace=2.0)

    def test_put_check_list_delete_roundtrip(self, live, tmp_path,
                                             capsys):
        from repro.cli import main

        path = tmp_path / "schema.car"
        path.write_text(SCHEMA_V1)
        assert main(["registry", "put", "inv", str(path),
                     "--url", live]) == 0
        path.write_text(SCHEMA_V2)
        assert main(["registry", "put", "inv", str(path),
                     "--url", live, "--json"]) == 0
        out = capsys.readouterr().out
        assert '"mode": "delta"' in out
        assert main(["registry", "list", "--url", live]) == 0
        assert "latest=v2" in capsys.readouterr().out
        assert main(["registry", "check", "inv@2", "--class-name", "A",
                     "--url", live]) == 0
        assert main(["registry", "check", "inv@2", "--formula",
                     "A and not B", "--url", live]) == 1
        assert main(["registry", "get", "inv", "--version", "1",
                     "--url", live]) == 0
        assert '"version": 1' in capsys.readouterr().out
        assert main(["registry", "delete", "inv", "--version", "1",
                     "--url", live]) == 0
        assert main(["registry", "get", "inv", "--version", "1",
                     "--url", live]) == 67
        assert main(["registry", "check", "ghost", "--class-name", "A",
                     "--url", live]) == 67

    def test_unreachable_server_exits_69(self, capsys):
        from repro.cli import main

        assert main(["registry", "list",
                     "--url", "http://127.0.0.1:9"]) == 69
