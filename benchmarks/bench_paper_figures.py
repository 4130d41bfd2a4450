"""Experiment "Figures 1 & 2": end-to-end reasoning over the paper's own
schemas.

The paper has no measurement tables — its two figures are the running
example.  We regenerate them as workloads: parse the exact schemas, decide
coherence, and (for Figure 2) re-derive every fact the paper's prose
asserts about the example.
"""

import pytest

from benchlib import Table, run_table, timed
from repro import AttrRef, Card, Reasoner, inv, parse_schema
from repro.reasoner import (
    classify,
    implied_attribute_bounds,
    implied_disjoint,
    implies_isa,
)
from repro.workloads import FIGURE_1_SOURCE, FIGURE_2_SOURCE


def figures_table() -> Table:
    """Parse, expand and decide coherence of both figures; every row must
    come out coherent."""
    rows = []
    for label, source in (("Figure 1", FIGURE_1_SOURCE),
                          ("Figure 2", FIGURE_2_SOURCE)):
        reasoner = Reasoner(parse_schema(source))
        seconds, report = timed(reasoner.check_coherence)
        assert report.is_coherent, label
        stats = reasoner.stats()
        rows.append((label, stats.classes, stats.compound_classes,
                     stats.psi_unknowns, stats.psi_constraints,
                     report.is_coherent, seconds))
    return Table(
        "Figures 1 & 2 — end-to-end reasoning over the paper's schemas",
        ["schema", "classes", "compounds", "unknowns", "disequations",
         "coherent", "seconds"], rows)


def implied_facts_table() -> Table:
    """Every fact the paper states about Figure 2, re-derived by logical
    implication (none is written into the schema as such)."""
    reasoner = Reasoner(parse_schema(FIGURE_2_SOURCE))
    subsumptions = classify(reasoner).subsumptions
    return Table("Figure 2 — implied facts", ["fact", "derived value"], [
        ("Student ⟂ Professor",
         implied_disjoint(reasoner, "Student", "Professor")),
        ("Grad_Student ⟂ Professor",
         implied_disjoint(reasoner, "Grad_Student", "Professor")),
        ("Grad_Student ⊑ Student",
         implies_isa(reasoner, "Grad_Student", "Student")),
        ("Adv_Course ⊑ Course", implies_isa(reasoner, "Adv_Course", "Course")),
        ("Grad_Student ⊑ Person (classify)",
         ("Grad_Student", "Person") in subsumptions),
        ("taught_by per Course",
         implied_attribute_bounds(reasoner, "Course", AttrRef("taught_by"))),
        ("courses per Professor",
         implied_attribute_bounds(reasoner, "Professor", inv("taught_by"))),
        ("courses per Grad_Student",
         implied_attribute_bounds(reasoner, "Grad_Student",
                                  inv("taught_by"))),
    ])


@pytest.mark.experiment("figure1")
def test_figure1_and_2_pipelines(benchmark):
    figure1, figure2 = run_table(benchmark, figures_table)
    # Figure 1 has no cardinality constraints: the linear system is empty.
    assert figure1[4] == 0
    assert figure2[2] == 30  # compound classes
    assert figure2[4] > 0


@pytest.mark.experiment("figure2")
def test_figure2_paper_claims(benchmark):
    facts = dict(run_table(benchmark, implied_facts_table))
    assert facts["Student ⟂ Professor"]
    assert facts["Grad_Student ⟂ Professor"]
    assert facts["Grad_Student ⊑ Student"]
    assert facts["Adv_Course ⊑ Course"]
    assert facts["Grad_Student ⊑ Person (classify)"]
    assert facts["taught_by per Course"] == Card(1, 1)
    assert facts["courses per Professor"] == Card(1, 2)
    assert facts["courses per Grad_Student"] == Card(0, 1)
