"""Command-line interface: ``python -m repro <command> <schema file>``.

The paper's applications of schema reasoning — validation, inheritance
computation, type checking — exposed as a small tool over the concrete
syntax:

* ``validate``   — class satisfiability for every defined class, with
  explanations for unsatisfiable ones;
* ``classify``   — the implied subsumption hierarchy;
* ``satisfiable``— one class, with an explanation on failure;
* ``query``      — certain answers of a conjunctive query, optionally
  over a JSON database document (``--database``);
* ``synthesize`` — generate a sample database state and print it;
* ``render``     — parse and pretty-print (format / canonicalize);
* ``stats``      — pipeline size measurements;
* ``batch``      — answer a JSONL file of ``{"schema": ..., "formula":
  ...}`` queries through the parallel batch executor, one JSON outcome
  per line;
* ``compile``    — prebuild precompiled pipeline artifacts
  (:class:`~repro.engine.artifact.CompiledSchema`) for a JSONL schema
  list, so later runs and pool workers start warm;
* ``serve``      — run the long-lived HTTP query service
  (:mod:`repro.service`): JSON endpoints with admission control, a
  result cache, per-request budgets, and health/metrics introspection;
* ``backends``   — list the registered LP backends with their capability
  contracts (``--json`` for machine-readable auditing of the solver in
  use);
* ``registry``   — manage named, versioned schemas on a running service
  (``put``/``get``/``list``/``check``/``delete``): a thin HTTP client
  for the ``/v1/schemas`` endpoints, so edits revalidate incrementally
  server-side (see :mod:`repro.registry`).

Every command reads the schema from a file (or ``-`` for stdin) and returns
a nonzero exit status on validation failures, so the tool slots into CI.
All reasoning commands go through the engine layer's
:class:`~repro.engine.session.SchemaSession`; ``--strategy`` and
``--backend`` configure its :class:`~repro.engine.config.EngineConfig`.

Uniform flags on **every** subcommand:

* ``--json`` — a machine-readable JSON document on stdout instead of text;
* ``--profile`` — enable the observability bus and print a per-stage
  timing/counter summary to stderr after the command;
* ``--trace-out FILE`` — enable the bus and write the versioned JSON-lines
  trace (see :mod:`repro.obs.tracer`) to ``FILE``;
* ``--timeout SECONDS`` / ``--max-steps N`` — a cooperative
  :class:`~repro.core.budget.Budget` over the reasoning hot loops.  For
  ``batch`` the budget is per *query* (a slow query yields a timed-out
  outcome, the batch continues); for every other command it covers the
  whole command and trips exit code 75;
* ``--artifact-dir DIR`` / ``--no-artifact-cache`` — where precompiled
  pipeline snapshots are cached on disk (default ``~/.cache/repro``,
  overridable via ``$REPRO_ARTIFACT_DIR``), or switch the disk cache off.
  With the cache on — the CLI default — a repeated invocation against the
  same schema skips Phase 1 entirely by rehydrating the snapshot.

Exit codes are stable: 0 success, 1 negative verdict (unsatisfiable /
incoherent), 2 usage errors, and the ``sysexits``-inspired codes of the
:mod:`repro.core.errors` hierarchy on failures (65 malformed input, 66
unreadable file, 64 unanswerable question, 73 synthesis failure, 75
budget exceeded, 70 internal errors).

All human-readable output flows through one writer (:func:`_write`); a
lint rule bans stray ``print`` calls in the library so nothing else can
write to stdout behind the CLI's back.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core.budget import Budget, use_budget
from .core.errors import CarError, LinearSystemError, ParseError
from .core.schema import Schema
from .engine.config import EngineConfig
from .engine.executor import BatchExecutor
from .engine.session import SchemaSession
from .obs.tracer import NULL_TRACER, Tracer, use_tracer
from .parser.parser import parse_schema
from .parser.printer import render_schema
from .reasoner.explain import explain_unsatisfiability
from .reasoner.implication import classify
from .reasoner.satisfiability import Reasoner

__all__ = ["main", "build_parser"]

#: Exit code for files the CLI cannot read (sysexits ``EX_NOINPUT``).
EXIT_NOINPUT = 66


def _write(text: str = "", *, end: str = "\n") -> None:
    """The CLI's one stdout writer — all command output flows through here
    (the lint configuration bans ``print`` elsewhere in the library)."""
    sys.stdout.write(f"{text}{end}")


def _write_err(text: str = "") -> None:
    """The CLI's one stderr writer (diagnostics, profile summaries)."""
    sys.stderr.write(f"{text}\n")


def _emit_json(payload: dict) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True))


def _read_schema(path: str) -> Schema:
    if path == "-":
        source = sys.stdin.read()
    else:
        source = Path(path).read_text(encoding="utf-8")
    return parse_schema(source)


def _artifact_dir(args: argparse.Namespace) -> Optional[str]:
    """The artifact-cache directory the flags ask for (None = disabled).

    Unlike the library default (off), the CLI caches by default: cold
    process starts are exactly where rehydrating a precompiled snapshot
    beats rebuilding Phase 1.
    """
    from .engine.artifact import default_artifact_dir

    if getattr(args, "no_artifact_cache", False):
        return None
    return getattr(args, "artifact_dir", None) or default_artifact_dir()


def _make_session(args: argparse.Namespace) -> SchemaSession:
    """One engine session configured from the shared CLI flags."""
    return SchemaSession(EngineConfig(
        strategy=args.strategy,
        lp_backend=getattr(args, "backend", "auto"),
        artifact_dir=_artifact_dir(args)))


def _session_reasoner(args: argparse.Namespace) -> Reasoner:
    """The shared handler prologue: read the schema, enter the session."""
    return args.session.reasoner(_read_schema(args.schema))


def _cmd_validate(args: argparse.Namespace) -> int:
    reasoner = _session_reasoner(args)
    report = reasoner.check_coherence()
    status = 0 if report.is_coherent else 1
    if args.json:
        _emit_json({
            "command": "validate",
            "coherent": report.is_coherent,
            "satisfiable": list(report.satisfiable),
            "unsatisfiable": list(report.unsatisfiable),
        })
        return status
    if report.is_coherent:
        _write(str(report))
        return 0
    _write("INCOHERENT")
    for name in report.unsatisfiable:
        _write()
        _write(str(explain_unsatisfiability(reasoner, name)))
    return 1


def _cmd_classify(args: argparse.Namespace) -> int:
    classification = classify(_session_reasoner(args))
    if args.json:
        _emit_json({
            "command": "classify",
            "subsumptions": sorted(map(list, classification.subsumptions)),
            "equivalence_groups": [sorted(group) for group
                                   in classification.equivalence_groups],
            "unsatisfiable": list(classification.unsatisfiable),
        })
        return 0
    _write(str(classification))
    return 0


def _cmd_satisfiable(args: argparse.Namespace) -> int:
    reasoner = _session_reasoner(args)
    verdict = reasoner.is_satisfiable(args.class_name)
    if args.json:
        _emit_json({
            "command": "satisfiable",
            "class": args.class_name,
            "satisfiable": verdict,
            "explanation": None if verdict else str(
                explain_unsatisfiability(reasoner, args.class_name)),
        })
        return 0 if verdict else 1
    if verdict:
        _write(f"{args.class_name}: satisfiable")
        return 0
    _write(str(explain_unsatisfiability(reasoner, args.class_name)))
    return 1


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from .synthesis.builder import synthesize_model

    reasoner = _session_reasoner(args)
    report = synthesize_model(reasoner, target=args.target, scale=args.scale)
    interp = report.interpretation
    if args.json:
        payload: dict = {
            "command": "synthesize",
            "scale": report.scale,
            "n_objects": report.n_objects,
            "target": args.target,
        }
        if args.full:
            payload["classes"] = {
                name: sorted(map(str, interp.class_ext(name)))
                for name in sorted(interp.mentioned_classes())}
            payload["attributes"] = {
                name: sorted([str(a), str(b)]
                             for a, b in interp.attribute_ext(name))
                for name in sorted(interp.mentioned_attributes())}
            payload["relations"] = {
                name: sorted(map(str, interp.relation_ext(name)))
                for name in sorted(interp.mentioned_relations())}
        _emit_json(payload)
        return 0
    _write(f"verified model (scale {report.scale}, "
           f"{report.n_objects} objects):")
    _write(interp.summary())
    if args.full:
        for name in sorted(interp.mentioned_classes()):
            ext = sorted(map(str, interp.class_ext(name)))
            if ext:
                _write(f"{name} = {{{', '.join(ext)}}}")
        for name in sorted(interp.mentioned_attributes()):
            for a, b in sorted(map(lambda p: (str(p[0]), str(p[1])),
                                   interp.attribute_ext(name))):
                _write(f"{name}({a}, {b})")
        for name in sorted(interp.mentioned_relations()):
            for tup in sorted(interp.relation_ext(name), key=str):
                _write(f"{name}{tup}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """``repro query schema.car 'q(x) :- Person(x)'`` — certain answers.

    The query runs through :meth:`SchemaSession.query
    <repro.engine.session.SchemaSession.query>`: PerfectRef-style
    rewriting against the schema's implication closure, then plain
    evaluation over the optional ``--database`` document.  Exit status:
    boolean queries report their verdict (0 entailed, 1 not); open
    queries exit 0 with the answer rows (possibly none).  A tripped
    ``--timeout``/``--max-steps`` budget exits 75 like every command.
    """
    schema = _read_schema(args.schema)
    query_text = sys.stdin.read() if args.cq == "-" else args.cq
    database = None
    if args.database is not None:
        raw = (sys.stdin.read() if args.database == "-"
               else Path(args.database).read_text(encoding="utf-8"))
        try:
            database = json.loads(raw)
        except ValueError as exc:
            return _fail(args, f"database file is not valid JSON: {exc}", 65)
    answer = args.session.query(schema, query_text, database)
    if args.json:
        _emit_json({"command": "query", **answer.as_document()})
        return 0 if (answer.boolean or not answer.is_boolean) else 1
    rewrite = (f"{answer.disjuncts} disjunct(s), "
               f"{answer.rewrite_steps} rewrite step(s), "
               f"cache {'hit' if answer.rewrite_cached else 'miss'}")
    if answer.inconsistent:
        _write(f"database is inconsistent with the schema — every tuple "
               f"is a certain answer ({rewrite})")
        return 0
    if answer.is_boolean:
        _write(f"{'entailed' if answer.boolean else 'not entailed'} "
               f"({rewrite})")
        return 0 if answer.boolean else 1
    _write(f"{len(answer.answers)} certain answer(s) over "
           f"({', '.join(answer.variables)}) ({rewrite})")
    for row in answer.answers:
        _write("  " + ", ".join(str(value) for value in row))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    rendered = render_schema(_read_schema(args.schema))
    if args.json:
        _emit_json({"command": "render", "schema": rendered})
        return 0
    _write(rendered, end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = _session_reasoner(args).stats()
    if args.json:
        _emit_json({"command": "stats", **stats.to_json()})
        return 0
    for key, value in stats.to_json().items():
        _write(f"{key}: {value}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Answer a JSONL query file through the parallel batch executor.

    Each non-blank input line is ``{"schema": <source text>, "formula":
    <formula text>}``.  Default output is one JSON outcome object per
    line (mirroring the input shape); ``--json`` emits a single document
    with an aggregate summary instead.  Exit status: 0 when every query
    produced a verdict, otherwise the first failed query's error code
    (75 for a tripped budget).
    """
    if args.queries == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.queries).read_text(encoding="utf-8")

    # An invalid JSON line goes into its slot as the error itself, which
    # the batch reports as that query's outcome.
    items: list[object] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            items.append(json.loads(line))
        except ValueError as exc:
            items.append(ParseError(f"line {lineno}: invalid JSON: {exc}"))

    results = args.session.run_batch(
        items, jobs=(args.jobs if args.jobs > 0 else None), mode=args.mode,
        deadline=args.timeout, max_steps=args.max_steps)

    summary = {
        "total": len(results),
        "ok": sum(1 for o in results if o.ok),
        "timed_out": sum(1 for o in results if o.timed_out),
        "failed": sum(1 for o in results if not o.ok and not o.timed_out),
    }
    if args.json:
        _emit_json({"command": "batch", "summary": summary,
                    "outcomes": [o.to_json() for o in results]})
    else:
        for outcome in results:
            _write(json.dumps(outcome.to_json(), sort_keys=True))
    for outcome in results:
        if not outcome.ok:
            return outcome.error.exit_code
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    """Prebuild precompiled pipeline snapshots for a JSONL schema list.

    Each non-blank input line is either ``{"schema": <source text>}`` or
    ``{"path": <schema file>}`` (a bare JSON string is taken as source
    text).  For every schema the artifact cache is consulted first; a
    miss (or ``--force``) compiles Phase 1/2 and persists the snapshot.
    Default output is one JSON line per schema — fingerprint, status
    (``built``/``cached``/``failed``), seconds; ``--json`` emits a single
    summary document.  Exit status: 0 when every schema compiled, else
    the first failure's error code.
    """
    import time as time_module

    from .engine.artifact import config_fingerprint
    from .engine.pipeline import Pipeline
    from .engine.session import schema_fingerprint

    session = args.session
    cache = session.artifact_cache
    if cache is None:
        _write_err("error: repro compile needs an artifact cache; drop "
                   "--no-artifact-cache or pass --artifact-dir")
        return 2

    if args.schemas == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.schemas).read_text(encoding="utf-8")

    results: list[dict] = []
    exit_code = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        record = {"line": lineno, "status": "failed", "fingerprint": None,
                  "seconds": 0.0, "error": None}
        started = time_module.perf_counter()
        try:
            entry = json.loads(line)
            if isinstance(entry, str):
                source = entry
            elif isinstance(entry, dict) and "schema" in entry:
                source = entry["schema"]
            elif isinstance(entry, dict) and "path" in entry:
                source = Path(entry["path"]).read_text(encoding="utf-8")
            else:
                raise ValueError(
                    'expected {"schema": ...}, {"path": ...}, or a string')
            schema = parse_schema(source)
            fingerprint = schema_fingerprint(schema)
            record["fingerprint"] = fingerprint
            if not args.force and cache.load(fingerprint,
                                             session.config) is not None:
                record["status"] = "cached"
            else:
                pipeline = Pipeline(schema, session.config)
                cache.store(pipeline.compile())
                record["status"] = "built"
        except (CarError, OSError, ValueError) as exc:
            record["error"] = str(exc)
            if exit_code == 0:
                exit_code = getattr(exc, "exit_code", 65)
        record["seconds"] = time_module.perf_counter() - started
        results.append(record)

    summary = {
        "total": len(results),
        "built": sum(1 for r in results if r["status"] == "built"),
        "cached": sum(1 for r in results if r["status"] == "cached"),
        "failed": sum(1 for r in results if r["status"] == "failed"),
        "artifact_dir": str(cache.directory),
        "config_fingerprint": config_fingerprint(session.config),
    }
    if args.json:
        _emit_json({"command": "compile", "summary": summary,
                    "results": results})
    else:
        for record in results:
            _write(json.dumps(record, sort_keys=True))
    return exit_code


#: The ``repro serve`` flags that set a :class:`ServiceConfig
#: <repro.service.app.ServiceConfig>` field: (flag, field, type, metavar,
#: help).  Their defaults are the dataclass's, so the two cannot drift.
_SERVE_OPTIONS = (
    ("--host", "host", str, None, "bind address"),
    ("--port", "port", int, None,
     "bind port (0 = ephemeral; the bound port is printed on startup)"),
    ("--max-inflight", "max_inflight", int, "N",
     "concurrent executions before queueing"),
    ("--queue-depth", "queue_depth", int, "N", "waiting requests before 429"),
    ("--queue-timeout", "queue_timeout_s", float, "SECONDS",
     "longest a request may wait for a slot"),
    ("--workers", "workers", int, "N",
     "worker-pool threads behind the asyncio front end (0 = auto: "
     "max-inflight + 2)"),
    ("--pipeline-depth", "pipeline_depth", int, "N",
     "max requests one connection may have parsed-but-unanswered (HTTP "
     "pipelining)"),
    ("--idle-timeout", "idle_timeout_s", float, "SECONDS",
     "close connections idle (or trickling) longer than this"),
    ("--max-header-bytes", "max_header_bytes", int, "N",
     "reject request lines/header blocks larger than this with 431"),
    ("--max-body-bytes", "max_body_bytes", int, "N",
     "request bodies above this get 413"),
    ("--cache-size", "cache_limit", int, "N", "result-cache entry bound"),
    ("--max-timeout-ms", "max_timeout_ms", int, "MS",
     "cap on the X-Repro-Timeout-Ms request header"),
    ("--default-timeout-ms", "default_timeout_ms", int, "MS",
     "per-request deadline when the client sends none (default: "
     "unbounded)"),
    ("--drain-grace", "drain_grace_s", float, "SECONDS",
     "how long SIGTERM waits for in-flight requests"),
)


def _serve_config(args: argparse.Namespace):
    """The :class:`~repro.service.app.ServiceConfig` of ``repro serve``'s
    flags: each flag given overrides its field's default."""
    from .service.app import ServiceConfig

    return ServiceConfig(**{
        field_name: getattr(args, field_name)
        for _, field_name, _, _, _ in _SERVE_OPTIONS
        if getattr(args, field_name) is not None})


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP query service until SIGTERM/SIGINT, then drain.

    The service owns its session and its tracer (``/metrics`` is the
    tracer's counters); both replace the prologue's, so ``--profile`` and
    ``--trace-out`` export the service's bus after shutdown.  Exit
    status: 0 after a clean drain, 75 when the drain grace expired with
    requests still in flight.
    """
    import signal
    import threading

    from .service.app import ReproService

    try:
        config = _serve_config(args)
    except ValueError as exc:
        _write_err(f"error: {exc}")
        return 2
    service = ReproService(config, EngineConfig(
        strategy=args.strategy, lp_backend=args.backend,
        artifact_dir=_artifact_dir(args)))
    args.session.close()
    args.session = service.session
    args.tracer = service.tracer
    with use_tracer(service.tracer):
        for path in args.warm:
            service.session.warm([_read_schema(path)])
    host, port = service.start()
    _write(f"repro service listening on http://{host}:{port}")
    sys.stdout.flush()

    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(
            signum, lambda *_forwarded: stop.set())
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    _write_err("draining in-flight requests ...")
    drained = service.drain()
    _write_err("shutdown complete" if drained
               else "drain grace expired with requests still in flight")
    return 0 if drained else 75


def _registry_request(args: argparse.Namespace, method: str, path: str,
                      body: Optional[dict] = None) -> tuple[int, dict]:
    """One HTTP round trip to a running ``repro serve`` registry.

    Returns ``(status, payload)``; error statuses come back as values
    (their payloads carry the service's typed error), only transport
    failures raise — mapped by the caller onto exit 69 (unavailable).
    """
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + path
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    if args.tenant:
        request.add_header("X-Repro-Tenant", args.tenant)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(
                response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode("utf-8", errors="replace")
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"ok": False,
                       "error": {"code": "http_error", "sysexit": 70,
                                 "message": raw}}
        return exc.code, payload


def _cmd_registry(args: argparse.Namespace) -> int:
    """``repro registry put|get|list|check|delete`` — the HTTP client.

    Talks to a running ``repro serve`` at ``--url``; the registry lives
    in the service (names, versions, quotas are per-service state), so
    the CLI is deliberately a thin wire client rather than a second
    in-process registry with diverging contents.
    """
    import urllib.error

    action = args.registry_action
    try:
        if action == "put":
            if args.file == "-":
                source = sys.stdin.read()
            else:
                source = Path(args.file).read_text(encoding="utf-8")
            status, payload = _registry_request(
                args, "PUT", f"/v1/schemas/{args.name}",
                {"schema": source})
        elif action == "get":
            target = f"/v1/schemas/{args.name}"
            if args.version is not None:
                target += f"?version={args.version}"
            status, payload = _registry_request(args, "GET", target)
        elif action == "list":
            status, payload = _registry_request(args, "GET", "/v1/schemas")
        elif action == "check":
            body = {"schema_ref": args.ref}
            body["class" if args.class_name else "formula"] = (
                args.class_name or args.formula)
            status, payload = _registry_request(
                args, "POST", "/v1/satisfiable", body)
        else:  # delete
            body = ({"version": args.version}
                    if args.version is not None else {})
            status, payload = _registry_request(
                args, "DELETE", f"/v1/schemas/{args.name}", body)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        return _fail(args, f"cannot reach {args.url}: {exc}", 69)

    if status >= 400 or not payload.get("ok", False):
        error = payload.get("error", {})
        message = error.get("message", f"HTTP {status}")
        return _fail(args, message, int(error.get("sysexit", 70)))
    data = payload.get("data", {})
    if args.json:
        _emit_json({"command": "registry", "action": action} | payload)
        return 0 if data.get("verdict", True) else 1
    if action == "put":
        schema, revalidation = data["schema"], data["revalidation"]
        clusters = revalidation.get("clusters", {})
        _write(f"{schema['ref']}  fingerprint={schema['fingerprint'][:12]}  "
               f"mode={revalidation['mode']}  "
               f"clusters reused={clusters.get('reused', 0)}"
               f"/{clusters.get('total', 0)}")
    elif action == "get":
        _write(json.dumps(data["schema"], indent=2, sort_keys=True))
    elif action == "list":
        for row in data["schemas"]:
            _write(f"{row['name']}  latest=v{row['version']}  "
                   f"versions={row['versions']}  "
                   f"pinned={row['pinned_versions']}")
    elif action == "check":
        verdict = data["verdict"]
        _write(f"{args.ref}: "
               f"{'satisfiable' if verdict else 'unsatisfiable'}")
        return 0 if verdict else 1
    else:
        _write(f"deleted {data['removed_versions']} version(s) of "
               f"{args.name}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    """List the registered LP backends with their capability contracts."""
    from .linear.backends import available_backends, get_backend

    default = get_backend("auto")
    entries = available_backends()
    if args.json:
        _emit_json({
            "command": "backends",
            "default": default.name,
            "backends": [entry.as_dict() for entry in entries],
        })
        return 0
    for entry in entries:
        marker = "  (default)" if entry.name == default.name else ""
        _write(f"{entry.name}{marker}")
        _write(f"  {entry.summary}")
        capabilities = entry.capabilities
        _write(f"  arithmetic={capabilities.arithmetic} "
               f"sparse={capabilities.sparse} "
               f"closed_form={capabilities.closed_form} "
               f"degeneracy={capabilities.degeneracy}")
        if entry.aliases:
            _write("  aliases: " + ", ".join(entry.aliases))
        _write()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reason about CAR schemas (Calvanese & Lenzerini, "
                    "PODS 1994)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *,
            positional: str = "schema",
            positional_help: str = "schema file in CAR concrete syntax "
                                   "('-' for stdin)"
            ) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(positional, help=positional_help)
        sub.add_argument("--strategy", default="auto",
                         choices=EngineConfig.STRATEGIES,
                         help="compound-class enumeration strategy")
        sub.add_argument("--backend", default="auto", metavar="NAME",
                         help="LP backend for the support computation: a "
                              "registered name (auto, exact-sparse, "
                              "float-fallback); see 'repro backends'")
        sub.add_argument("--json", action="store_true",
                         help="print a machine-readable JSON document")
        sub.add_argument("--profile", action="store_true",
                         help="record pipeline spans/counters and print a "
                              "summary to stderr")
        sub.add_argument("--trace-out", metavar="FILE", default=None,
                         help="write the versioned JSON-lines trace to FILE")
        sub.add_argument("--timeout", type=float, metavar="SECONDS",
                         default=None,
                         help="wall-clock budget (per query for 'batch', "
                              "whole-command otherwise); exceeding it "
                              "exits 75")
        sub.add_argument("--max-steps", type=int, metavar="N", default=None,
                         help="hot-loop step budget (same scope as "
                              "--timeout)")
        sub.add_argument("--artifact-dir", metavar="DIR", default=None,
                         help="directory for precompiled pipeline "
                              "snapshots (default: $REPRO_ARTIFACT_DIR "
                              "or ~/.cache/repro)")
        sub.add_argument("--no-artifact-cache", action="store_true",
                         help="do not read or write precompiled pipeline "
                              "snapshots")
        sub.set_defaults(handler=handler, per_query_budget=False)
        return sub

    add("validate", _cmd_validate,
        "check that every defined class is satisfiable")
    add("classify", _cmd_classify, "compute the implied subsumptions")
    sat = add("satisfiable", _cmd_satisfiable,
              "decide satisfiability of one class")
    sat.add_argument("class_name", help="the class symbol to test")
    synth = add("synthesize", _cmd_synthesize,
                "generate a verified sample database state")
    synth.add_argument("--target", default=None,
                       help="class that must be populated")
    synth.add_argument("--scale", type=int, default=1,
                       help="multiply the base witness")
    synth.add_argument("--full", action="store_true",
                       help="print the entire database state")
    query_cmd = add("query", _cmd_query,
                    "compute the certain answers of a conjunctive query")
    query_cmd.add_argument("cq", help="conjunctive query, e.g. "
                                      "'q(x) :- Person(x), works_for(x, y)' "
                                      "('-' for stdin)")
    query_cmd.add_argument("--database", metavar="FILE", default=None,
                           help="JSON database document to evaluate over "
                                "('-' for stdin): {\"objects\": {...}, "
                                "\"attributes\": [...], \"relations\": "
                                "[...]}")
    add("render", _cmd_render, "parse and pretty-print the schema")
    add("stats", _cmd_stats, "print pipeline size measurements")
    batch = add("batch", _cmd_batch,
                "answer a JSONL file of schema/formula queries in parallel",
                positional="queries",
                positional_help="JSONL query file, one "
                                '{"schema": ..., "formula": ...} object '
                                "per line ('-' for stdin)")
    batch.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker count (0 = one per CPU; 1 = serial)")
    batch.add_argument("--mode", default="auto",
                       choices=BatchExecutor.MODES,
                       help="worker pool flavor (auto: processes when "
                            "--jobs > 1)")
    batch.set_defaults(per_query_budget=True)
    compile_cmd = add(
        "compile", _cmd_compile,
        "prebuild precompiled pipeline artifacts for a JSONL schema list",
        positional="schemas",
        positional_help="JSONL schema list, one "
                        '{"schema": ...} or {"path": ...} object '
                        "per line ('-' for stdin)")
    compile_cmd.add_argument("--force", action="store_true",
                             help="recompile even when a valid snapshot "
                                  "is already cached")

    serve = subparsers.add_parser(
        "serve", help="run the HTTP query service (see repro.service)")
    for flag, field_name, kind, metavar, text in _SERVE_OPTIONS:
        # No default here: an unset flag keeps ServiceConfig's own.
        serve.add_argument(flag, dest=field_name, type=kind, metavar=metavar,
                           help=text)
    serve.add_argument("--warm", action="append", default=[],
                       metavar="FILE",
                       help="schema file to pre-build pipelines for "
                            "(repeatable)")
    serve.add_argument("--strategy", default="auto",
                       choices=EngineConfig.STRATEGIES,
                       help="compound-class enumeration strategy")
    serve.add_argument("--backend", default="auto", metavar="NAME",
                       help="LP backend for the support computation: a "
                            "registered name (see 'repro backends')")
    serve.add_argument("--json", action="store_true",
                       help=argparse.SUPPRESS)
    serve.add_argument("--profile", action="store_true",
                       help="print the service's span/counter summary to "
                            "stderr after shutdown")
    serve.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the service's JSON-lines trace to FILE "
                            "on shutdown")
    serve.add_argument("--artifact-dir", metavar="DIR", default=None,
                       help="directory for precompiled pipeline snapshots "
                            "(default: $REPRO_ARTIFACT_DIR or "
                            "~/.cache/repro); --warm schemas load from it "
                            "on boot")
    serve.add_argument("--no-artifact-cache", action="store_true",
                       help="do not read or write precompiled pipeline "
                            "snapshots")
    serve.set_defaults(handler=_cmd_serve, per_query_budget=True)

    backends_cmd = subparsers.add_parser(
        "backends",
        help="list the registered LP backends and their capabilities")
    backends_cmd.add_argument("--json", action="store_true",
                              help="print a machine-readable JSON document")
    backends_cmd.set_defaults(handler=_cmd_backends, per_query_budget=False,
                              strategy="auto", backend="auto",
                              no_artifact_cache=True)

    registry = subparsers.add_parser(
        "registry",
        help="manage named schema versions on a running repro service")
    registry_actions = registry.add_subparsers(dest="registry_action",
                                               required=True)

    def add_registry(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = registry_actions.add_parser(name, help=help_text)
        sub.add_argument("--url", default="http://127.0.0.1:8750",
                         help="base URL of the repro service "
                              "(default http://127.0.0.1:8750)")
        sub.add_argument("--tenant", default=None,
                         help="tenant namespace (X-Repro-Tenant header)")
        sub.add_argument("--json", action="store_true",
                         help="print the raw JSON response")
        sub.set_defaults(handler=_cmd_registry, per_query_budget=False,
                         strategy="auto", backend="auto",
                         no_artifact_cache=True)
        return sub

    reg_put = add_registry(
        "put", "store (or revise) a named schema and revalidate it")
    reg_put.add_argument("name", help="schema name")
    reg_put.add_argument("file", help="schema file in CAR concrete syntax "
                                      "('-' for stdin)")
    reg_get = add_registry("get", "show a stored schema version")
    reg_get.add_argument("name", help="schema name")
    reg_get.add_argument("--version", type=int, default=None, metavar="N",
                         help="version number (default: latest)")
    add_registry("list", "list the tenant's schemas")
    reg_check = add_registry(
        "check", "decide satisfiability against a stored schema")
    reg_check.add_argument("ref", help="schema reference: name, "
                                       "name@VERSION, or name@latest")
    check_target = reg_check.add_mutually_exclusive_group(required=True)
    check_target.add_argument("--formula", default=None,
                              help="formula to test")
    check_target.add_argument("--class-name", default=None,
                              help="class symbol to test")
    reg_delete = add_registry(
        "delete", "remove a schema (or one version of it)")
    reg_delete.add_argument("name", help="schema name")
    reg_delete.add_argument("--version", type=int, default=None,
                            metavar="N",
                            help="delete only this version")
    return parser


def _profile_summary(tracer) -> list[str]:
    """Human-readable per-stage breakdown of a trace (for ``--profile``)."""
    lines = ["-- profile --"]
    by_name: dict[str, tuple[int, float]] = {}
    for record in tracer.spans:
        count, total = by_name.get(record.name, (0, 0.0))
        by_name[record.name] = (count + 1, total + record.duration)
    for name in sorted(by_name):
        count, total = by_name[name]
        times = f" x{count}" if count > 1 else ""
        lines.append(f"  {name}: {total * 1000:.3f} ms{times}")
    for name, value in sorted(tracer.counters.items()):
        lines.append(f"  {name} = {value}")
    for name, value in sorted(tracer.gauges.items()):
        lines.append(f"  {name} = {value}")
    return lines


def _finish_trace(args: argparse.Namespace) -> None:
    tracer = args.tracer
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        tracer.write_jsonl(trace_out)
    if getattr(args, "profile", False):
        for line in _profile_summary(tracer):
            _write_err(line)


def _fail(args: argparse.Namespace, message: str, code: int) -> int:
    if getattr(args, "json", False):
        _emit_json({"command": getattr(args, "command", None),
                    "error": message, "exit_code": code})
    _write_err(f"error: {message}")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.session = _make_session(args)
    except LinearSystemError as error:
        # An unknown --backend name is a usage error (exit 2),
        # same as a rejected argparse choice used to be.
        parser.error(str(error))
    # --profile / --trace-out switch the observability bus on for the
    # whole command; _finish_trace exports it after the handler returns.
    traced = (getattr(args, "profile", False)
              or getattr(args, "trace_out", None))
    args.tracer = Tracer() if traced else NULL_TRACER
    try:
        # The session context manager shuts any batch worker pool down
        # before interpreter teardown — a live ProcessPoolExecutor at exit
        # races the multiprocessing atexit hooks and spews tracebacks.
        with args.session, use_tracer(args.tracer):
            timeout = getattr(args, "timeout", None)
            max_steps = getattr(args, "max_steps", None)
            if (not args.per_query_budget
                    and (timeout is not None or max_steps is not None)):
                # Whole-command budget: the ambient Budget governs every
                # hot loop the handler enters; BudgetExceeded lands in the
                # CarError arm below and exits 75.
                with use_budget(Budget(timeout, max_steps)):
                    return args.handler(args)
            return args.handler(args)
    except CarError as error:
        return _fail(args, str(error), error.exit_code)
    except FileNotFoundError as error:
        return _fail(args, str(error), EXIT_NOINPUT)
    finally:
        # The trace is exported even on failure: a trace of the stages that
        # did run is exactly what debugging a failed run needs.
        _finish_trace(args)
        # `serve` swaps in the service's session mid-handler; close
        # whatever session the namespace holds now (idempotent).
        args.session.close()


if __name__ == "__main__":
    raise SystemExit(main())
