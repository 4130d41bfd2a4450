"""Experiment "Theorem 4.3": the linear phase is polynomial in |Ψ_S|.

We hold the per-cluster structure fixed and add clusters, so the expansion
— and with it the disequation system — grows *linearly* while remaining
nontrivial (every cluster carries exact-cardinality attribute constraints).
Theorem 4.3 predicts the acceptable-solution check stays polynomial in the
system size; the measured times must stay under a quadratic envelope.
"""

import pytest

from benchlib import Table, is_subquadratic, run_table, timed
from repro.core.cardinality import Card
from repro.core.formulas import Lit
from repro.core.schema import Attr, ClassDef, Schema, inv
from repro.expansion.expansion import build_expansion
from repro.linear.support import acceptable_support
from repro.linear.system import build_system


def ratio_cluster(index: int, fan: int) -> list[ClassDef]:
    """One cluster: |B| = fan · |A| via exact cardinalities."""
    a, b = f"A{index}", f"B{index}"
    return [
        ClassDef(a, isa=~Lit(b),
                 attributes=[Attr(f"link{index}", Card(fan, fan), b)]),
        ClassDef(b, attributes=[Attr(inv(f"link{index}"), Card(1, 1), a)]),
    ]


def schema_with_clusters(n: int) -> Schema:
    """``n`` ratio clusters with fans cycling through 2, 3, 4 — the
    workload of this experiment and of ``bench_lp_backends.py``."""
    classes = []
    for i in range(n):
        classes.extend(ratio_cluster(i, fan=2 + (i % 3)))
    return Schema(classes)


def support_table() -> Table:
    """The default backend's support check at 2–32 clusters."""
    rows = []
    for n_clusters in (2, 4, 8, 16, 32):
        system = build_system(build_expansion(schema_with_clusters(n_clusters)))
        seconds, result = timed(lambda s=system: acceptable_support(s))
        assert result.support  # every cluster is satisfiable
        rows.append((n_clusters, system.size(), system.n_unknowns(),
                     system.n_constraints(), seconds))
    return Table(
        "Theorem 4.3 — acceptable-solution check vs |Psi_S|",
        ["clusters", "|Psi_S|", "unknowns", "disequations", "seconds"], rows)


@pytest.mark.experiment("theorem43")
def test_lp_phase_polynomial_in_system_size(benchmark):
    rows = run_table(benchmark, support_table)
    sizes = [float(r[1]) for r in rows]
    times = [max(r[4], 1e-5) for r in rows]
    assert is_subquadratic(sizes, times, slack=4.0), (
        "linear-phase time must stay polynomial (quadratic envelope) "
        f"in |Psi_S|: sizes {sizes}, times {times}")


@pytest.mark.experiment("theorem43")
def test_lp_phase_single_system(benchmark):
    """Timed: one mid-sized support computation in isolation."""
    system = build_system(build_expansion(schema_with_clusters(8)))
    result = benchmark(lambda: acceptable_support(system))
    assert result.support


@pytest.mark.experiment("theorem43")
def test_integrality_of_witnesses(benchmark):
    """Theorem 4.3's integrality half: rational witnesses scale to integer
    acceptable solutions; verify the scaled witness against Ψ_S exactly."""
    from fractions import Fraction

    system = build_system(build_expansion(schema_with_clusters(4)))

    def check():
        result = acceptable_support(system)
        witness = result.integer_solution(scale=2)
        for constraint in system.constraints:
            total = sum((coeff * witness[var]
                         for var, coeff in constraint.coefficients),
                        Fraction(0))
            assert total <= 0, constraint.origin
        return witness

    witness = benchmark(check)
    assert any(value > 0 for value in witness.values())
