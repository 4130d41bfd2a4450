"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

GOOD_SCHEMA = """
class Person endclass
class Student isa Person and not Professor endclass
class Professor isa Person endclass
"""

BAD_SCHEMA = GOOD_SCHEMA + """
class TA isa Student and Professor endclass
"""

CARD_SCHEMA = """
class C isa not D attributes a : (1, 2) D endclass
class D endclass
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.car"
    path.write_text(GOOD_SCHEMA)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.car"
    path.write_text(BAD_SCHEMA)
    return str(path)


class TestValidate:
    def test_coherent_schema_exits_zero(self, good_file, capsys):
        assert main(["validate", good_file]) == 0
        assert "coherent" in capsys.readouterr().out

    def test_incoherent_schema_exits_nonzero(self, bad_file, capsys):
        assert main(["validate", bad_file]) == 1
        out = capsys.readouterr().out
        assert "INCOHERENT" in out
        assert "TA" in out
        assert "unsatisfiable" in out  # the explanation is printed

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(GOOD_SCHEMA))
        assert main(["validate", "-"]) == 0


class TestClassify:
    def test_lists_subsumptions(self, good_file, capsys):
        assert main(["classify", good_file]) == 0
        out = capsys.readouterr().out
        assert "Student isa Person" in out


class TestSatisfiable:
    def test_satisfiable_class(self, good_file, capsys):
        assert main(["satisfiable", good_file, "Student"]) == 0
        assert "satisfiable" in capsys.readouterr().out

    def test_unsatisfiable_class_explained(self, bad_file, capsys):
        assert main(["satisfiable", bad_file, "TA"]) == 1
        assert "phase 1" in capsys.readouterr().out

    def test_unknown_class_is_error(self, good_file, capsys):
        # ReasoningError carries the stable exit code 64.
        assert main(["satisfiable", good_file, "Nope"]) == 64
        assert "error" in capsys.readouterr().err


class TestSynthesize:
    def test_synthesizes_model(self, tmp_path, capsys):
        path = tmp_path / "card.car"
        path.write_text(CARD_SCHEMA)
        assert main(["synthesize", str(path), "--target", "C"]) == 0
        out = capsys.readouterr().out
        assert "verified model" in out

    def test_full_dump(self, tmp_path, capsys):
        path = tmp_path / "card.car"
        path.write_text(CARD_SCHEMA)
        assert main(["synthesize", str(path), "--target", "C", "--full"]) == 0
        out = capsys.readouterr().out
        assert "a(" in out  # attribute pairs printed


class TestRenderAndStats:
    def test_render_round_trips(self, good_file, capsys):
        assert main(["render", good_file]) == 0
        out = capsys.readouterr().out
        from repro.parser.parser import parse_schema

        assert parse_schema(out) == parse_schema(GOOD_SCHEMA)

    def test_stats_keys(self, good_file, capsys):
        assert main(["stats", good_file]) == 0
        out = capsys.readouterr().out
        assert "compound_classes:" in out
        assert "lp_backend:" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.car"
        path.write_text("class endclass")
        # ParseError carries the stable exit code 65 (EX_DATAERR).
        assert main(["validate", str(path)]) == 65
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        # Unreadable input carries the stable exit code 66 (EX_NOINPUT).
        assert main(["validate", "/nonexistent/schema.car"]) == 66

    def test_strategy_flag(self, good_file):
        assert main(["validate", good_file, "--strategy", "naive"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", good_file, "--strategy", "hierarchy"])
        assert excinfo.value.code == 2


class TestJsonOutput:
    def parse(self, capsys):
        import json

        return json.loads(capsys.readouterr().out)

    def test_validate_json_coherent(self, good_file, capsys):
        assert main(["validate", good_file, "--json"]) == 0
        document = self.parse(capsys)
        assert document["command"] == "validate"
        assert document["coherent"] is True
        assert sorted(document["satisfiable"]) == ["Person", "Professor",
                                                   "Student"]
        assert document["unsatisfiable"] == []

    def test_validate_json_incoherent(self, bad_file, capsys):
        assert main(["validate", bad_file, "--json"]) == 1
        document = self.parse(capsys)
        assert document["coherent"] is False
        assert document["unsatisfiable"] == ["TA"]

    def test_satisfiable_json(self, good_file, capsys):
        assert main(["satisfiable", good_file, "Student", "--json"]) == 0
        document = self.parse(capsys)
        assert document == {"command": "satisfiable", "class": "Student",
                            "satisfiable": True, "explanation": None}

    def test_satisfiable_json_explains_failure(self, bad_file, capsys):
        assert main(["satisfiable", bad_file, "TA", "--json"]) == 1
        document = self.parse(capsys)
        assert document["satisfiable"] is False
        assert "phase 1" in document["explanation"]

    def test_stats_json(self, good_file, capsys):
        assert main(["stats", good_file, "--json"]) == 0
        document = self.parse(capsys)
        assert document["command"] == "stats"
        assert document["classes"] == 3
        assert document["lp_backend"] in (
            "exact-sparse", "float", "closed-form", "propagation")
        assert "psi_unknowns" in document

    def test_validate_text_matches_report_str(self, good_file, capsys):
        from repro.parser.parser import parse_schema
        from repro.reasoner.satisfiability import Reasoner

        assert main(["validate", good_file]) == 0
        out = capsys.readouterr().out.strip()
        report = Reasoner(parse_schema(GOOD_SCHEMA)).check_coherence()
        assert out == str(report)


class TestBackendFlag:
    @pytest.mark.parametrize("backend", ["auto", "exact-sparse",
                                         "float-fallback"])
    def test_backend_accepted_everywhere(self, good_file, backend, capsys):
        assert main(["validate", good_file, "--backend", backend]) == 0
        assert main(["satisfiable", good_file, "Student",
                     "--backend", backend]) == 0
        capsys.readouterr()

    def test_backends_agree_on_verdicts(self, bad_file, capsys):
        import json

        verdicts = []
        for backend in ("exact-sparse", "float-fallback"):
            main(["validate", bad_file, "--json", "--backend", backend])
            document = json.loads(capsys.readouterr().out)
            verdicts.append((document["coherent"],
                             tuple(document["unsatisfiable"])))
        assert verdicts[0] == verdicts[1] == (False, ("TA",))

    def test_unknown_backend_rejected(self, good_file, capsys):
        with pytest.raises(SystemExit):
            main(["validate", good_file, "--backend", "bogus"])

    @pytest.mark.parametrize("backend", ["exact", "float", "auto:limit=50"])
    def test_retired_backend_names_rejected(self, good_file, backend,
                                            capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", good_file, "--backend", backend])
        assert excinfo.value.code == 2
        assert "unknown LP backend" in capsys.readouterr().err


class TestUniformJson:
    """Every subcommand accepts --json (the normalized CLI surface)."""

    def parse(self, capsys):
        import json

        return json.loads(capsys.readouterr().out)

    def test_classify_json(self, good_file, capsys):
        assert main(["classify", good_file, "--json"]) == 0
        document = self.parse(capsys)
        assert document["command"] == "classify"
        assert ["Student", "Person"] in document["subsumptions"]
        assert document["unsatisfiable"] == []

    def test_render_json(self, good_file, capsys):
        from repro.parser.parser import parse_schema

        assert main(["render", good_file, "--json"]) == 0
        document = self.parse(capsys)
        assert document["command"] == "render"
        assert parse_schema(document["schema"]) == parse_schema(GOOD_SCHEMA)

    def test_synthesize_json(self, tmp_path, capsys):
        path = tmp_path / "card.car"
        path.write_text(CARD_SCHEMA)
        assert main(["synthesize", str(path), "--target", "C",
                     "--full", "--json"]) == 0
        document = self.parse(capsys)
        assert document["command"] == "synthesize"
        assert document["n_objects"] >= 1
        assert "a" in document["attributes"]

    def test_json_error_document(self, tmp_path, capsys):
        path = tmp_path / "broken.car"
        path.write_text("class endclass")
        assert main(["validate", str(path), "--json"]) == 65
        document = self.parse(capsys)
        assert document["exit_code"] == 65
        assert "error" in document


class TestProfileAndTrace:
    def test_profile_summary_on_stderr(self, good_file, capsys):
        assert main(["satisfiable", good_file, "Student", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "pipeline.support" in captured.err
        assert "profile" in captured.err
        # stdout stays clean for the verdict
        assert "satisfiable" in captured.out

    def test_trace_out_writes_versioned_jsonl(self, good_file, tmp_path,
                                              capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        assert main(["satisfiable", good_file, "Student",
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        lines = [json.loads(line)
                 for line in trace_path.read_text().splitlines()]
        header = lines[0]
        assert header["type"] == "header"
        assert header["trace_schema"] == 1
        kinds = {line["type"] for line in lines}
        assert "span" in kinds and "counter" in kinds
        span_names = {line["name"] for line in lines
                      if line["type"] == "span"}
        assert {"pipeline.tables", "pipeline.expansion", "pipeline.system",
                "pipeline.support"} <= span_names

    def test_trace_written_even_on_failure(self, bad_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["satisfiable", bad_file, "TA",
                     "--trace-out", str(trace_path)]) == 1
        capsys.readouterr()
        assert trace_path.exists()
        assert '"type": "header"' in trace_path.read_text()

    def test_no_flags_no_trace_output(self, good_file, capsys):
        assert main(["satisfiable", good_file, "Student"]) == 0
        assert capsys.readouterr().err == ""


class TestBatch:
    """The ``repro batch`` subcommand: JSONL in, JSONL outcomes out."""

    @pytest.fixture
    def queries_file(self, tmp_path):
        import json

        lines = [
            {"schema": GOOD_SCHEMA, "formula": "Student and not Professor"},
            {"schema": GOOD_SCHEMA, "formula": "Student and Professor"},
            {"schema": "class C isa not C endclass", "formula": "C"},
        ]
        path = tmp_path / "queries.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines))
        return str(path)

    def test_jsonl_outcomes_per_line(self, queries_file, capsys):
        import json

        assert main(["batch", queries_file]) == 0
        out = capsys.readouterr().out
        outcomes = [json.loads(line) for line in out.splitlines()]
        assert [o["index"] for o in outcomes] == [0, 1, 2]
        assert [o["verdict"] for o in outcomes] == [True, False, False]
        assert all(o["error"] is None for o in outcomes)

    def test_json_document_with_summary(self, queries_file, capsys):
        import json

        assert main(["batch", queries_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "batch"
        assert payload["summary"] == {"total": 3, "ok": 3, "timed_out": 0,
                                      "failed": 0}
        assert len(payload["outcomes"]) == 3

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        import json

        line = json.dumps({"schema": GOOD_SCHEMA, "formula": "Student"})
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["batch", "-"]) == 0

    def test_bad_lines_isolated_and_exit_code(self, tmp_path, capsys):
        import json

        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join([
            json.dumps({"schema": GOOD_SCHEMA, "formula": "Student"}),
            "this is not json",
            json.dumps({"formula": "no schema key"}),
        ]))
        # First failure is the invalid JSON line: ParseError, exit 65.
        assert main(["batch", str(path)]) == 65
        outcomes = [json.loads(line)
                    for line in capsys.readouterr().out.splitlines()]
        assert outcomes[0]["verdict"] is True
        assert outcomes[1]["error"]["kind"] == "ParseError"
        assert "line 2" in outcomes[1]["error"]["message"]
        assert outcomes[2]["error"]["kind"] == "ParseError"

    def test_timeout_exits_75(self, tmp_path, capsys):
        import json

        from repro.parser.printer import render_schema
        from repro.reductions import machine_to_schema, parity_machine

        reduction = machine_to_schema(parity_machine(), (0, 1, 0, 1), 6, 6)
        path = tmp_path / "slow.jsonl"
        path.write_text("\n".join([
            json.dumps({"schema": render_schema(reduction.schema),
                        "formula": str(reduction.target)}),
            json.dumps({"schema": GOOD_SCHEMA, "formula": "Student"}),
        ]))
        assert main(["batch", str(path), "--timeout", "0.05"]) == 75
        outcomes = [json.loads(line)
                    for line in capsys.readouterr().out.splitlines()]
        # The deadline kills the EXPTIME query, not its batch-mate.
        assert outcomes[0]["timed_out"] is True
        assert outcomes[0]["error"]["exit_code"] == 75
        assert outcomes[1]["verdict"] is True

    def test_jobs_process_pool(self, queries_file, capsys):
        import json

        assert main(["batch", queries_file, "--jobs", "2",
                     "--mode", "process"]) == 0
        outcomes = [json.loads(line)
                    for line in capsys.readouterr().out.splitlines()]
        assert [o["verdict"] for o in outcomes] == [True, False, False]

    def test_profile_counters_on_stderr(self, queries_file, capsys):
        assert main(["batch", queries_file, "--profile"]) == 0
        err = capsys.readouterr().err
        assert "executor.tasks_dispatched" in err
        assert "executor.shards" in err


class TestWholeCommandBudget:
    """--timeout / --max-steps on the classic subcommands."""

    def test_max_steps_trips_exit_75(self, tmp_path, capsys):
        from repro.parser.printer import render_schema
        from repro.workloads.generators import clustered_schema

        path = tmp_path / "clustered.car"
        path.write_text(render_schema(clustered_schema(3, 4, seed=1)))
        assert main(["validate", str(path), "--max-steps", "5"]) == 75
        assert "budget" in capsys.readouterr().err.lower()

    def test_generous_timeout_is_harmless(self, good_file, capsys):
        assert main(["validate", good_file, "--timeout", "60"]) == 0
