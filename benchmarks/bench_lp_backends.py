"""Experiment "LP backends": the sparse fraction-free core vs the dense one.

Ψ_S is extremely sparse — every disequation couples one compound-class
column to its entry's summands — so a dense all-``Fraction`` tableau (the
test-only reference simplex, ``tests.dense_reference.DenseReference``)
pays for a rectangle of zeros on every pivot.  The sparse fraction-free
simplex (backend ``"exact-sparse"``) touches only nonzeros and keeps
integer rows, and must therefore beat the dense core by a widening margin
as |Ψ_S| grows, while producing **identical** support sets (the maximal
acceptable support is unique).

The full sweeps (up to the 10x-scaled row at 320 clusters, where the dense
core alone takes minutes) run in ``run_experiments.py``.  The tests here
measure the rows their bars need with the same table functions:

* the sparse backend is ≥3x faster than the dense reference on the
  largest row the dense core can afford in CI time (64 clusters), and
  stays under a quadratic envelope over the whole sweep;
* hierarchy systems answer through the Section 4.4 closed form, which
  the exact backends try before the simplex on every round, with
  **zero** simplex pivots and the support of a plain LP;
* so do wide-attribute systems, whose compound attributes each sit in
  two bound entries (an attribute and its inverse): the certificate gives
  such a summand the least of its shares.
"""

import pytest

from bench_theorem43_lp import schema_with_clusters
from benchlib import Table, is_subquadratic, run_table, timed
from repro.expansion.expansion import build_expansion
from repro.linear.backends import grouped_columns, solve_sparse_groups
from repro.linear.support import acceptable_support
from repro.linear.system import build_system
from repro.obs.tracer import Tracer, use_tracer
from repro.workloads.generators import hierarchy_schema, wide_attribute_schema
from tests.dense_reference import DenseReference

#: The sparse backend must beat the dense reference by at least this
#: factor on the comparison row — the CI speedup bar (measured margins are
#: two orders of magnitude; 3x keeps the bar robust on noisy runners).
SPEEDUP_BAR = 3.0

#: The ratio-cluster sweep: 10x the Theorem 4.3 series, which stops at 32.
CLUSTERS = (8, 32, 64, 128, 320)

#: Largest cluster count the *dense* backend can afford inside CI time.
DENSE_COMPARISON_CLUSTERS = 64

#: The hierarchy sweep (depth, branching), attributes on, seed 9.
HIERARCHIES = ((3, 3), (4, 3), (5, 3))

#: The coupled sweep: ``wide_attribute_schema(n)`` specializations.
#: perfbench's ``cold_check`` draws n from 6 to 14; at 20, |Psi_S| is
#: about twice its largest.
WIDE_SIZES = (6, 10, 14, 20)


def backends_table(clusters=CLUSTERS, dense: bool = True) -> Table:
    """Support of the ratio-cluster systems on the sparse backend and, when
    ``dense``, on the dense reference, which must agree."""
    rows = []
    for n_clusters in clusters:
        system = build_system(build_expansion(schema_with_clusters(n_clusters)))
        sparse_s, sparse = timed(
            lambda s=system: acceptable_support(s, backend="exact-sparse"))
        assert sparse.support  # every cluster is satisfiable
        dense_s = speedup = "-"
        if dense:
            dense_s, reference = timed(
                lambda s=system: acceptable_support(s, backend=DenseReference()))
            assert sparse.support == reference.support
            speedup = round(dense_s / max(sparse_s, 1e-9), 1)
        rows.append((n_clusters, system.size(), system.n_unknowns(),
                     dense_s, sparse_s, speedup))
    return Table(
        "LP backends — dense reference vs sparse fraction-free on Psi_S",
        ["clusters", "|Psi_S|", "unknowns", "dense-reference s",
         "exact-sparse s", "speedup"], rows)


def _certificate_row(system) -> tuple:
    """``(|Psi_S|, LP pivots, sparse LP s, closed form s)`` for one system
    the certificate must answer: every round with zero pivots, finding the
    support of ``float-fallback``, which runs only its own LP."""
    # The sparse simplex alone: the backend would take the certificate.
    lp_metrics: dict = {}
    lp_s, _ = timed(lambda: solve_sparse_groups(
        *grouped_columns(system, list(range(system.n_unknowns()))),
        lp_metrics))
    tracer = Tracer()
    with use_tracer(tracer):
        closed_s, closed = timed(lambda: acceptable_support(
            system, backend="exact-sparse"))
    assert closed.backend_used == "closed-form"
    assert tracer.counters.get("lp.hierarchy_closed_form", 0) >= 1
    assert tracer.counters.get("lp.pivots", 0) == 0
    assert closed.support == acceptable_support(
        system, backend="float-fallback").support
    return (system.size(), lp_metrics.get("lp.pivots", 0), lp_s, closed_s)


def closed_form_table(shapes=HIERARCHIES) -> Table:
    """The Section 4.4 certificate vs one raw sparse LP solve on
    hierarchy systems."""
    rows = []
    for depth, branching in shapes:
        system = build_system(build_expansion(hierarchy_schema(
            depth, branching, with_attributes=True, seed=9)))
        rows.append((f"{depth}x{branching}", *_certificate_row(system)))
    return Table(
        "Section 4.4 closed form vs sparse LP on hierarchies",
        ["hierarchy", "|Psi_S|", "LP pivots", "sparse LP s",
         "closed form s"], rows)


def coupled_table(sizes=WIDE_SIZES) -> Table:
    """The Section 4.4 certificate vs one raw sparse LP solve on
    wide-attribute systems, where every compound attribute sits in the
    entries of both its endpoints."""
    rows = []
    for n in sizes:
        system = build_system(build_expansion(wide_attribute_schema(n)))
        rows.append((n, *_certificate_row(system)))
    return Table(
        "Section 4.4 closed form vs sparse LP on coupled entries "
        "(wide attribute and inverse)",
        ["specializations", "|Psi_S|", "LP pivots", "sparse LP s",
         "closed form s"], rows)


@pytest.mark.experiment("lp-backends")
def test_sparse_beats_dense_exact(benchmark):
    """Identical supports, ≥3x wall-clock on the comparison row."""
    [(_, _, _, dense_s, sparse_s, _)] = run_table(
        benchmark, backends_table, (DENSE_COMPARISON_CLUSTERS,))
    assert dense_s >= SPEEDUP_BAR * sparse_s, (
        f"sparse backend must be at least {SPEEDUP_BAR}x faster than the "
        f"dense core: dense {dense_s:.3f}s vs sparse {sparse_s:.3f}s")


@pytest.mark.experiment("lp-backends")
def test_sparse_scales_to_the_10x_row(benchmark):
    """The sparse core stays polynomial up to the 10x-scaled row."""
    rows = run_table(benchmark, backends_table, CLUSTERS, False)
    sizes = [float(r[1]) for r in rows]
    times = [max(r[4], 1e-5) for r in rows]
    assert is_subquadratic(sizes, times, slack=4.0), (
        "sparse LP time must stay under the quadratic envelope "
        f"{list(zip(sizes, times))}")


@pytest.mark.experiment("lp-backends")
def test_hierarchy_closed_form_has_zero_pivots(benchmark):
    """§4.4: hierarchy systems skip the simplex entirely."""
    [row] = run_table(benchmark, closed_form_table, ((4, 3),))
    assert row[2] > 0  # the plain LP does pivot on the same system


@pytest.mark.experiment("lp-backends")
def test_coupled_entries_take_the_certificate(benchmark):
    """An attribute with its inverse no longer sends a round to the
    simplex when the coupled populations may be equal."""
    rows = run_table(benchmark, coupled_table)
    assert all(row[2] > 0 for row in rows)  # the plain LP does pivot
