"""Experiment "Theorem 4.5": arity reduction kills the compound-relation
blow-up.

The number of compound relations is |compound classes per role|^K for a
K-ary relation; reification replaces it with K binary relations whose
compound counts are quadratic.  The benchmark builds K-ary booking-style
schemas for growing K, measures the expansion with and without the
transformation, and asserts (a) satisfiability is preserved and (b) the
reified expansion wins by a growing factor.
"""

import pytest

from benchlib import Table, run_table
from repro.core.cardinality import Card
from repro.core.formulas import Clause, Formula, Lit
from repro.core.schema import ClassDef, Part, RelationDef, RoleClause, RoleLiteral, Schema
from repro.expansion.expansion import build_expansion
from repro.reasoner.satisfiability import Reasoner
from repro.reasoner.transform import reify_nonbinary_relations


def kary_schema(arity: int, variants: int = 2) -> Schema:
    """A K-ary relation where each role's family has ``variants`` disjoint
    subclasses — each role admits ``variants + 1`` compound classes, so the
    naive expansion holds ``(variants + 1)^K`` compound relations."""
    classes: list[ClassDef] = []
    roles = []
    constraints = []
    families = [f"F{k}" for k in range(arity)]
    for k, family in enumerate(families):
        role = f"r{k}"
        roles.append(role)
        disjoint_from_others = Formula(tuple(
            Clause((Lit(other, positive=False),))
            for other in families if other != family))
        classes.append(ClassDef(
            family, disjoint_from_others,
            participates=[Part("Link", role, Card(0, 3))]))
        subs = [f"{family}v{i}" for i in range(variants)]
        for sub in subs:
            isa = Formula((Clause((Lit(family),)),)) if len(subs) == 1 else (
                Formula(tuple([Clause((Lit(family),))] + [
                    Clause((Lit(other, positive=False),))
                    for other in subs if other != sub])))
            classes.append(ClassDef(sub, isa))
        constraints.append(RoleClause(RoleLiteral(role, family)))
    relation = RelationDef("Link", roles, constraints)
    return Schema(classes, [relation])


def arity_table() -> Table:
    """Compound relations and expansion size of ``kary_schema`` at K = 2–5,
    before and after reification."""
    rows = []
    for arity in (2, 3, 4, 5):
        schema = kary_schema(arity)
        before = build_expansion(schema)
        before_rel = sum(len(v) for v in before.compound_relations.values())
        after = build_expansion(reify_nonbinary_relations(schema).schema)
        after_rel = sum(len(v) for v in after.compound_relations.values())
        rows.append((arity, before_rel, before.size(), after_rel,
                     after.size()))
    return Table(
        "Theorem 4.5 — K-ary expansion, original vs reified",
        ["arity K", "K-ary comp. rels", "expansion", "binary comp. rels",
         "reified expansion"], rows)


@pytest.mark.experiment("theorem45")
def test_expansion_vs_arity(benchmark):
    rows = run_table(benchmark, arity_table)
    # Binary case untouched; from arity 3 on the reified expansion wins and
    # the advantage widens with K (the crossover the theorem predicts).
    assert rows[0][1] == rows[0][3] or rows[0][4] <= rows[0][2]
    gaps = []
    for arity, before_rel, before_size, after_rel, after_size in rows[1:]:
        assert after_rel < before_rel
        gaps.append(before_rel / max(after_rel, 1))
    assert gaps == sorted(gaps), f"advantage must widen with K: {gaps}"


@pytest.mark.experiment("theorem45")
def test_satisfiability_preserved_under_reification(benchmark):
    schema = kary_schema(4)
    result = reify_nonbinary_relations(schema)

    def verdicts():
        before = Reasoner(schema)
        after = Reasoner(result.schema)
        return {name: (before.is_satisfiable(name), after.is_satisfiable(name))
                for name in sorted(schema.class_symbols)}

    outcome = benchmark.pedantic(verdicts, rounds=1, iterations=1)
    for name, (left, right) in outcome.items():
        assert left == right, name
