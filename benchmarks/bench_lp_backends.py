"""Experiment "LP backends": the sparse fraction-free core vs the dense one.

Ψ_S is extremely sparse — every disequation couples one compound-class
column to its entry's summands — so a dense all-``Fraction`` tableau (the
test-only reference simplex, ``tests.dense_reference.DenseReference``)
pays for a rectangle of zeros on every pivot.  The sparse fraction-free
simplex (backend ``"exact-sparse"``) touches only nonzeros and keeps
integer rows, and must therefore beat the dense core by a widening margin
as |Ψ_S| grows, while producing **identical** support sets (the maximal
acceptable support is unique).

Two bars are asserted here and re-checked in CI:

* the sparse backend is ≥3x faster than the dense reference on the
  largest row both can afford in CI time (the committed ``BENCH_lp.json``
  records the full table, including the 10x-scaled row at 320 clusters);
* hierarchy-flagged systems answer through the Section 4.4 closed form
  with **zero** simplex pivots.
"""

import pytest

from benchlib import is_subquadratic, render_table, timed
from repro.core.cardinality import Card
from repro.core.formulas import Lit
from repro.core.schema import Attr, ClassDef, Schema, inv
from repro.expansion.expansion import build_expansion
from repro.linear.backends import SparseExactBackend
from repro.linear.support import acceptable_support
from repro.linear.system import build_system
from repro.obs.tracer import Tracer, use_tracer
from repro.workloads.generators import hierarchy_schema
from tests.dense_reference import DenseReference

#: The sparse backend must beat the dense reference by at least this
#: factor on the comparison row — the CI speedup bar (measured margins are
#: two orders of magnitude; 3x keeps the bar robust on noisy runners).
SPEEDUP_BAR = 3.0

#: Largest cluster count the *dense* backend can afford inside CI time.
DENSE_COMPARISON_CLUSTERS = 64

#: The 10x-scaled row (today's largest committed series stops at 32
#: clusters); asserted sparse-only in CI, dense-vs-sparse in BENCH_lp.json.
SCALED_CLUSTERS = 320


def ratio_cluster(index: int, fan: int) -> list[ClassDef]:
    """One cluster: |B| = fan · |A| via exact cardinalities."""
    a, b = f"A{index}", f"B{index}"
    return [
        ClassDef(a, isa=~Lit(b),
                 attributes=[Attr(f"link{index}", Card(fan, fan), b)]),
        ClassDef(b, attributes=[Attr(inv(f"link{index}"), Card(1, 1), a)]),
    ]


def schema_with_clusters(n: int) -> Schema:
    classes = []
    for i in range(n):
        classes.extend(ratio_cluster(i, fan=2 + (i % 3)))
    return Schema(classes)


@pytest.mark.experiment("lp-backends")
def test_sparse_beats_dense_exact(benchmark):
    """Identical verdicts, ≥3x wall-clock on the comparison row."""
    system = build_system(build_expansion(
        schema_with_clusters(DENSE_COMPARISON_CLUSTERS)))

    def measure():
        sparse_s, sparse = timed(
            lambda: acceptable_support(system, backend="exact-sparse"))
        dense_s, dense = timed(
            lambda: acceptable_support(system, backend=DenseReference()))
        return sparse_s, dense_s, sparse, dense

    sparse_s, dense_s, sparse, dense = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    print()
    print(render_table(
        "LP backends — dense reference vs sparse exact "
        f"({DENSE_COMPARISON_CLUSTERS} clusters, |Psi_S|={system.size()})",
        ["backend", "seconds"],
        [("dense-reference", dense_s), ("exact-sparse", sparse_s)]))

    assert sparse.support == dense.support
    assert dense_s >= SPEEDUP_BAR * sparse_s, (
        f"sparse backend must be at least {SPEEDUP_BAR}x faster than the "
        f"dense core: dense {dense_s:.3f}s vs sparse {sparse_s:.3f}s")


@pytest.mark.experiment("lp-backends")
def test_sparse_scales_to_the_10x_row(benchmark):
    """The 10x-scaled Ψ_S row stays polynomial for the sparse core."""
    def measure():
        rows = []
        for n_clusters in (32, 96, SCALED_CLUSTERS):
            system = build_system(build_expansion(
                schema_with_clusters(n_clusters)))
            seconds, result = timed(
                lambda s=system: acceptable_support(s, backend="exact-sparse"))
            assert result.support  # every cluster is satisfiable
            rows.append((n_clusters, system.size(), seconds))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(render_table(
        "LP backends — sparse exact on the 10x-scaled series",
        ["clusters", "|Psi_S|", "seconds"], rows))
    sizes = [float(r[1]) for r in rows]
    times = [max(r[2], 1e-5) for r in rows]
    assert is_subquadratic(sizes, times, slack=4.0), (
        "sparse LP time must stay under the quadratic envelope "
        f"{list(zip(sizes, times))}")


@pytest.mark.experiment("lp-backends")
def test_hierarchy_closed_form_has_zero_pivots(benchmark):
    """§4.4: hierarchy-flagged systems skip the simplex entirely."""
    system = build_system(build_expansion(
        hierarchy_schema(4, 3, with_attributes=True, seed=9)))
    active = list(range(system.n_unknowns()))

    def closed_form():
        tracer = Tracer()
        with use_tracer(tracer):
            result = acceptable_support(system, backend="exact-sparse",
                                        hierarchy=True)
        return result, dict(tracer.counters)

    (result, counters) = benchmark.pedantic(closed_form, rounds=1,
                                            iterations=1)
    lp_s, lp_result = timed(
        lambda: SparseExactBackend().solve(system, active))
    closed_s, _ = timed(lambda: SparseExactBackend().solve(
        system, sorted(result.support), hierarchy=True))
    print()
    print(render_table(
        f"Section 4.4 closed form vs sparse LP (|Psi_S|={system.size()})",
        ["path", "seconds", "pivots"],
        [("sparse LP", lp_s, lp_result.metrics.get("lp.pivots", 0)),
         ("closed form", closed_s, 0)]))

    assert result.backend_used == "closed-form"
    assert counters.get("lp.hierarchy_closed_form", 0) >= 1
    assert counters.get("lp.pivots", 0) == 0
    plain = acceptable_support(system, backend="exact-sparse")
    assert result.support == plain.support
