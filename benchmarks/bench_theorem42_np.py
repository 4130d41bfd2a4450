"""Experiment "Theorem 4.2": NP-hardness — reasoning cost on reduced
instances.

Two workload families feed this bench:

* **3SAT → CAR** (general schemas, ground truth from the bundled DPLL):
  the expansion enumerates satisfying assignments, so work grows
  exponentially with the variable count — the NP-hardness shape.
* **Intersection Pattern → CAR** (union-free, negation-free — the fragment
  Theorem 4.2 is actually about): cardinality-only encodings whose
  solvable/unsolvable verdicts match the combinatorial ground truth.
"""

import pytest

from benchlib import Table, is_superlinear, run_table, timed
from repro import Reasoner
from repro.reductions import (
    IntersectionPattern,
    cnf_to_schema,
    dpll_satisfiable,
    pattern_solvable_bruteforce,
    pattern_to_schema,
    random_cnf,
)


def sat_table() -> Table:
    """Fixed-ratio random 3SAT at 4–10 variables; every schema verdict
    must equal the DPLL verdict."""
    rows = []
    for n_vars in (4, 6, 8, 10):
        formula = random_cnf(n_vars, n_clauses=n_vars * 2, seed=7)
        schema = cnf_to_schema(formula)
        reasoner = Reasoner(schema)
        seconds, verdict = timed(lambda r=reasoner: r.is_satisfiable("World"))
        expected = dpll_satisfiable(formula) is not None
        assert verdict == expected, f"{n_vars} variables"
        rows.append((n_vars, len(schema.class_symbols),
                     len(reasoner.expansion.compound_classes),
                     verdict, expected, seconds))
    return Table(
        "Theorem 4.2a — 3SAT→CAR, ratio-2 random formulas",
        ["vars", "classes", "compounds", "schema verdict", "DPLL verdict",
         "seconds"], rows)


def intersection_pattern_table() -> Table:
    """Diagonal-2, off-diagonal-1 patterns at n = 2, 3 (feasible), then
    one pairwise-infeasible 2x2 pattern; ``W`` must be satisfiable
    exactly on the feasible ones.  n = 4 already takes minutes (the NP
    blow-up is the point)."""
    instances = []
    for n in (2, 3):
        matrix = [[2 if i == j else 1 for j in range(n)] for i in range(n)]
        instances.append((n, IntersectionPattern.of(matrix), True))
    instances.append(("2 (infeasible)",
                      IntersectionPattern.of([[2, 3], [3, 3]]), False))
    rows = []
    for label, pattern, feasible in instances:
        schema = pattern_to_schema(pattern)
        reasoner = Reasoner(schema)
        seconds, verdict = timed(lambda r=reasoner: r.is_satisfiable("W"))
        assert verdict == feasible, label
        rows.append((label, len(schema.class_symbols),
                     len(reasoner.expansion.compound_classes), verdict,
                     seconds))
    return Table(
        "Theorem 4.2b — Intersection Pattern (union- & negation-free)",
        ["n", "classes", "compounds", "W satisfiable", "seconds"], rows)


@pytest.mark.experiment("theorem42")
def test_sat_reduction_scaling(benchmark):
    """Reasoning time/expansion vs variable count on fixed-ratio 3SAT."""
    rows = run_table(benchmark, sat_table)
    assert is_superlinear([r[1] for r in rows], [r[2] for r in rows])


@pytest.mark.experiment("theorem42")
def test_sat_single_instance(benchmark):
    formula = random_cnf(6, 12, seed=3)
    schema = cnf_to_schema(formula)

    def run():
        return Reasoner(schema).is_satisfiable("World")

    verdict = benchmark(run)
    assert verdict == (dpll_satisfiable(formula) is not None)


PATTERNS = [
    ("feasible 2x2", IntersectionPattern.of([[2, 1], [1, 2]]), True),
    ("infeasible 2x2", IntersectionPattern.of([[2, 3], [3, 3]]), False),
    ("feasible 3x3", IntersectionPattern.of(
        [[2, 1, 0], [1, 2, 1], [0, 1, 2]]), True),
]


@pytest.mark.experiment("theorem42")
@pytest.mark.parametrize("label,pattern,solvable", PATTERNS)
def test_intersection_pattern_instances(benchmark, label, pattern, solvable):
    """Union-free/negation-free instances: verdicts vs combinatorial truth."""
    assert pattern_solvable_bruteforce(pattern) == solvable
    schema = pattern_to_schema(pattern)
    assert schema.is_union_free() and schema.is_negation_free()

    verdict = benchmark.pedantic(
        lambda: Reasoner(schema).is_satisfiable("W"), rounds=1, iterations=1)
    if solvable:
        assert verdict  # IP solution ⇒ model (exact direction)
    else:
        # These instances fail already pairwise, which the relaxed converse
        # direction of the encoding also refutes.
        assert not verdict


@pytest.mark.experiment("theorem42")
def test_intersection_pattern_scaling(benchmark):
    """Schema growth with the number of sets n (quadratic classes, growing
    reasoning cost); the table function checks every verdict."""
    run_table(benchmark, intersection_pattern_table)
