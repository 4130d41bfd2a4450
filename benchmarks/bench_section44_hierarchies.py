"""Experiment "Section 4.4": generalization hierarchies are polynomial.

For schemas organized as generalization hierarchies (treelike isa with
sibling disjointness — the shape most object-oriented models assume), the
consistent compound classes are exactly the root-to-node paths: one per
class.  The method therefore runs in polynomial time; we grow balanced
hierarchies and check (a) the compound count equals class count + 1 and
(b) reasoning time stays far below the exponential regime.
"""

import pytest

from benchlib import Table, is_subquadratic, run_table, timed
from repro import Reasoner
from repro.expansion.enumerate import compound_classes
from repro.expansion.graph import hierarchy_compound_classes
from repro.workloads.generators import hierarchy_schema


def hierarchies_table() -> Table:
    """Phase 1 under ``"auto"`` on five balanced hierarchies."""
    rows = []
    for depth, branching in ((2, 2), (3, 2), (3, 3), (4, 3), (5, 3)):
        schema = hierarchy_schema(depth, branching)
        seconds, compounds = timed(
            lambda s=schema: compound_classes(s, "auto"))
        rows.append((f"{depth}/{branching}", len(schema.class_symbols),
                     len(compounds), seconds))
    return Table(
        "Section 4.4 — generalization hierarchies (depth/branching)",
        ["shape", "classes", "compounds", "seconds"], rows)


@pytest.mark.experiment("section44")
def test_hierarchy_polynomial_scaling(benchmark):
    rows = run_table(benchmark, hierarchies_table)
    for _, n_classes, n_compounds, _ in rows:
        # The paper's count: one compound class per class (plus the empty).
        assert n_compounds == n_classes + 1

    classes = [float(r[1]) for r in rows]
    times = [max(r[3], 1e-5) for r in rows]
    assert is_subquadratic(classes, times, slack=8.0)


@pytest.mark.experiment("section44")
def test_hierarchy_closed_form_agrees_with_dpll(benchmark):
    schema = hierarchy_schema(3, 3)

    def both():
        closed = hierarchy_compound_classes(schema)
        general = compound_classes(schema, "strategic")
        return closed, general

    closed, general = benchmark.pedantic(both, rounds=1, iterations=1)
    assert closed is not None
    assert set(closed) == set(general)


@pytest.mark.experiment("section44")
def test_hierarchy_reasoning_end_to_end(benchmark):
    schema = hierarchy_schema(3, 3, with_attributes=True, seed=5)

    def run():
        return Reasoner(schema).check_coherence()

    report = benchmark(run)
    assert report.is_coherent
