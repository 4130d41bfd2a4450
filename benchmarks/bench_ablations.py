"""Ablation benchmarks for the engineering choices DESIGN.md calls out.

Three optimizations sit between the paper's algorithm and a practical
implementation; each is toggleable, and each toggle must not change any
verdict (asserted here and property-tested in the test suite):

1. **Combinatorial propagation** before the LP (pin obviously-dead
   unknowns) — fewer and smaller LP rounds;
2. **Interchangeable-column merging** in the max-support LP — compound
   attributes/relations with identical constraint columns collapse into
   one LP variable;
3. **Binding-entry filtering** in the expansion — compound objects no
   disequation mentions are never materialized.
"""

import pytest

from benchlib import Table, render_table, run_table, timed
from repro.expansion.expansion import build_expansion
from repro.linear.support import acceptable_support
from repro.workloads.paper_schemas import figure1_schema, figure2_schema


def support_toggles_table() -> Table:
    """Figure 2's support with propagation or column merging switched off
    (best of 3 each, warm solver path); every variant must find the same
    support."""
    expansion = build_expansion(figure2_schema())
    baseline = acceptable_support(expansion)  # also warms the solver path
    rows = []
    for label, kwargs in (("baseline", {}),
                          ("no propagation", {"use_propagation": False}),
                          ("no column merging", {"merge_columns": False})):
        runs = [timed(lambda k=kwargs: acceptable_support(expansion, **k))
                for _ in range(3)]
        assert all(result.support == baseline.support for _, result in runs)
        rows.append((label, min(seconds for seconds, _ in runs)))
    return Table("Ablations — support computation on Figure 2",
                 ["variant", "seconds"], rows)


def binding_filter_table() -> Table:
    """Expansion size with binding-entry filtering vs Definition 3.1
    verbatim, on both paper figures."""
    rows = []
    for label, schema in (("Figure 1", figure1_schema()),
                          ("Figure 2", figure2_schema())):
        filtered = build_expansion(schema).size()
        verbatim = build_expansion(schema, include_unconstrained=True).size()
        rows.append((label, filtered, verbatim))
    return Table("Ablations — binding-entry filtering (expansion size)",
                 ["schema", "filtered", "Definition 3.1 verbatim"], rows)


@pytest.mark.experiment("ablations")
def test_ablation_support_toggles(benchmark):
    """Propagation and column merging each switched off: same support
    (checked by the table function), measured cost."""
    run_table(benchmark, support_toggles_table)


@pytest.mark.experiment("ablations")
def test_ablation_table_deduction(benchmark):
    """Unit-propagation vs binary-clause (Krom) closure in the preselection
    tables: the stronger deduction derives strictly more facts on schemas
    with two-literal clauses, at polynomial cost — and never changes a
    reasoning verdict (it only prunes earlier)."""
    from repro.expansion.tables import build_tables
    from repro.parser.parser import parse_schema
    from repro.reasoner.satisfiability import Reasoner

    source_parts = []
    for i in range(8):
        source_parts.append(f"""
            class A{i} isa B{i} and C{i} endclass
            class B{i} isa D{i} or not C{i} endclass
            class C{i} endclass
            class D{i} endclass
        """)
    schema = parse_schema("\n".join(source_parts))

    def measure():
        unit_s, unit = timed(lambda: build_tables(schema, deduction="unit"))
        binary_s, binary = timed(
            lambda: build_tables(schema, deduction="binary"))
        return unit_s, unit, binary_s, binary

    unit_s, unit, binary_s, binary = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    unit_facts = sum(len(unit.superclasses(n)) for n in schema.class_symbols)
    binary_facts = sum(len(binary.superclasses(n))
                       for n in schema.class_symbols)
    print()
    print(render_table(
        "Ablation — table deduction strength",
        ["variant", "derived inclusions", "seconds"],
        [("unit propagation", unit_facts, unit_s),
         ("binary (Krom) closure", binary_facts, binary_s)]))
    assert binary_facts > unit_facts
    # Verdicts unaffected: tables only prune, the reasoner decides.
    reasoner = Reasoner(schema)
    assert reasoner.check_coherence().is_coherent


@pytest.mark.experiment("ablations")
def test_ablation_binding_filter(benchmark):
    """Definition 3.1 verbatim vs binding-entry filtering (Figure 1 has
    only the unconstrained default cardinality)."""
    rows = run_table(benchmark, binding_filter_table)
    for _, filtered, verbatim in rows:
        assert filtered <= verbatim
    # Figure 1 is the dramatic case: no binding entries at all.
    assert rows[0][1] < rows[0][2] / 10
