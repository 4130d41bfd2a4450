"""Experiment "Theorem 4.1": EXPTIME-hardness — expansion growth under the
Turing machine reduction.

The theorem's content, measured: as the simulated tape grows, the number of
consistent compound classes (and reasoning time) grows exponentially —
each extra tape cell multiplies the configuration space by the alphabet
size.  The benchmark runs the parity machine on growing space bounds and
asserts the exponential shape; the timed case is a fixed medium instance.
"""

import pytest

from benchlib import Table, growth_ratios, is_superlinear, run_table, timed
from repro import Reasoner
from repro.reductions import machine_to_schema, parity_machine, starts_with_one


def growing_tape_table() -> Table:
    """The parity machine at space bounds 1–3 (time bound S+1): schema
    size, expansion size and verdict; every schema verdict must equal the
    machine's."""
    machine = parity_machine()
    rows = []
    for space in (1, 2, 3):
        word = "1" * (space - 1)
        time_bound = space + 1
        reduction = machine_to_schema(machine, word, time_bound, space)
        reasoner = Reasoner(reduction.schema)
        seconds, verdict = timed(
            lambda r=reasoner, t=reduction.target: r.is_satisfiable(t))
        accepts = machine.accepts(word, time_bound, space)
        assert verdict == accepts, f"space {space}"
        rows.append((space, len(reduction.schema.class_symbols),
                     len(reasoner.expansion.compound_classes),
                     verdict, accepts, seconds))
    return Table(
        "Theorem 4.1 — TM reduction (parity machine), growing tape",
        ["space S", "classes", "compounds", "schema verdict",
         "machine verdict", "seconds"], rows)


def decide(word: str, time_bound: int, space: int) -> bool:
    machine = parity_machine()
    reduction = machine_to_schema(machine, word, time_bound, space)
    reasoner = Reasoner(reduction.schema)
    return reasoner.is_satisfiable(reduction.target)


@pytest.mark.experiment("theorem41")
def test_reduction_correctness_small(benchmark):
    """Timed: the smallest nontrivial accepting run."""
    machine = starts_with_one()

    def run():
        reduction = machine_to_schema(machine, "1", 1, 1)
        return Reasoner(reduction.schema).is_satisfiable(reduction.target)

    assert benchmark(run)


@pytest.mark.experiment("theorem41")
def test_exponential_expansion_in_space(benchmark):
    """The paper's shape: the schema grows polynomially in the space bound
    S, the compound classes of its expansion exponentially."""
    rows = run_table(benchmark, growing_tape_table)
    schema_sizes = [r[1] for r in rows]
    compounds = [r[2] for r in rows]
    # Schema grows polynomially; the expansion outpaces it clearly.
    assert is_superlinear(schema_sizes, compounds)
    # And the per-step expansion growth accelerates (exponential signature).
    ratios = growth_ratios([float(c) for c in compounds])
    assert ratios[-1] > 1.5


@pytest.mark.experiment("theorem41")
@pytest.mark.parametrize("word,time_bound,space,expected", [
    ("11", 4, 3, True),
    ("1", 3, 2, False),
])
def test_acceptance_mirrors_satisfiability(benchmark, word, time_bound,
                                           space, expected):
    result = benchmark.pedantic(decide, args=(word, time_bound, space),
                                rounds=1, iterations=1)
    assert result == expected
    assert parity_machine().accepts(word, time_bound, space) == expected
