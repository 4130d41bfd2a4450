"""Experiment "Theorem 3.3 (constructive)": model synthesis scaling.

The paper proves that an acceptable integer solution yields a model; our
synthesizer makes that constructive.  This bench measures construction time
and model size as the witness scale grows (the homogeneity knob) and as the
cardinality chain forces geometric populations — every produced model is
re-verified by the independent checker.
"""

import pytest

from benchlib import Table, run_table, timed
from repro.reasoner.satisfiability import Reasoner
from repro.semantics.checker import is_model
from repro.synthesis.builder import synthesize_model
from repro.workloads.generators import cardinality_chain_schema
from repro.workloads.paper_schemas import figure2_schema


def witness_scale_table() -> Table:
    """Model size and time vs requested scale on the chain L0→L1→L2
    (fan-out 2); every model is re-checked."""
    schema = cardinality_chain_schema(2, fan_out=2)
    reasoner = Reasoner(schema)
    rows = []
    for scale in (1, 2, 4, 8):
        seconds, report = timed(
            lambda s=scale: synthesize_model(reasoner, target="L0", scale=s))
        assert is_model(report.interpretation, schema)
        rows.append((scale, report.n_objects, seconds))
    return Table("Theorem 3.3 (constructive) — synthesis vs witness scale",
                 ["scale", "objects", "seconds"], rows)


def chain_depth_table() -> Table:
    """Chain depth drives geometric model growth: every model is re-checked
    and must have |L_k| = 2^k · |L_0|."""
    rows = []
    for length in (1, 2, 3, 4):
        schema = cardinality_chain_schema(length, fan_out=2)
        seconds, report = timed(
            lambda s=schema: synthesize_model(Reasoner(s), target="L0"))
        assert is_model(report.interpretation, schema)
        last = len(report.interpretation.class_ext(f"L{length}"))
        first = len(report.interpretation.class_ext("L0"))
        assert last == (2 ** length) * first
        rows.append((length, report.n_objects, seconds))
    return Table("Theorem 3.3 (constructive) — synthesis vs chain depth",
                 ["chain length", "objects", "seconds"], rows)


@pytest.mark.experiment("synthesis")
def test_synthesis_scales_with_witness(benchmark):
    rows = run_table(benchmark, witness_scale_table)
    # Objects grow linearly with the scale (homogeneity).
    assert rows[-1][1] == rows[0][1] * 8


@pytest.mark.experiment("synthesis")
def test_synthesis_chain_depth(benchmark):
    run_table(benchmark, chain_depth_table)


@pytest.mark.experiment("synthesis")
@pytest.mark.slow
def test_figure2_synthesis_single(benchmark):
    """The paper's own schema, end to end, as the timed reference case."""
    reasoner = Reasoner(figure2_schema())

    def run():
        report = synthesize_model(reasoner, target="Grad_Student")
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.interpretation.class_ext("Grad_Student")
