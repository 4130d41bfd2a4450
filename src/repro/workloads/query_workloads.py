"""Seeded conjunctive-query workloads for the rewriting benchmarks.

Everything here is deterministic in its integer ``seed``, like the
schema generators in :mod:`repro.workloads.generators`.  The family
targets the rewriting cost drivers specifically:

* :func:`taxonomy_schema` — a subclass tree of configurable branching
  and depth whose leaves participate mandatorily in per-level relations:
  class atoms specialize along the tree (``branching^depth`` leaves per
  root atom) and relation atoms eliminate into the mandatory
  participants;
* :func:`star_queries` — one center variable carrying a class atom plus
  ``arms`` relation atoms (the classic SPARQL-ish star shape);
* :func:`chain_queries` — relation atoms composed head-to-tail
  (``r(x0, x1), r(x1, x2), …``), the shape unification/reduction acts
  on;
* :func:`boolean_queries` — empty-head versions of both shapes;
* :func:`sample_database` — a seeded database *document* (the JSON
  shape of :func:`repro.qa.data.database_from_document`) populating the
  taxonomy, for end-to-end certain-answer evaluation.

``query_workload`` bundles the three shapes into one labeled suite for
the table functions of ``benchmarks/bench_query.py``.
"""

from __future__ import annotations

import random

from ..core.cardinality import Card
from ..core.formulas import Clause, Formula, Lit
from ..core.schema import (
    ClassDef,
    ParticipationSpec,
    RelationDef,
    RoleClause,
    RoleLiteral,
    Schema,
)

__all__ = [
    "taxonomy_schema",
    "star_queries",
    "chain_queries",
    "boolean_queries",
    "query_workload",
    "sample_database",
]


def taxonomy_schema(branching: int, depth: int) -> Schema:
    """A subclass tree with one mandatory relation per level.

    Level 0 is the single root ``T``; level ``i`` holds ``branching**i``
    classes, each isa its parent.  Every non-root level ``i`` comes with
    a binary relation ``link{i}(src, dst)`` whose ``src`` is constrained
    to level ``i-1``'s leftmost class and whose ``dst`` is constrained to
    the root — and the leftmost class of level ``i-1`` participates
    mandatorily at ``src``.  Rewriting a root class atom then fans out
    over the whole tree plus one relation probe per level.
    """
    classes: list[ClassDef] = []
    relations: list[RelationDef] = []
    level = ["T"]
    classes.append(ClassDef("T"))
    for i in range(1, depth + 1):
        parent_leftmost = level[0]
        relation = f"link{i}"
        relations.append(RelationDef(
            relation, ("src", "dst"),
            constraints=[RoleClause(RoleLiteral("src",
                                                Lit(parent_leftmost))),
                         RoleClause(RoleLiteral("dst", Lit("T")))]))
        next_level: list[str] = []
        for j, parent in enumerate(level):
            for k in range(branching):
                name = f"T{i}_{j * branching + k}"
                participates = []
                if j == 0 and k == 0:
                    # The leftmost child chain participates mandatorily,
                    # so relation atoms eliminate into class atoms.
                    participates.append(
                        ParticipationSpec(relation, "src", Card(1, None)))
                classes.append(ClassDef(
                    name, Formula((Clause((Lit(parent),)),)),
                    participates=participates))
                next_level.append(name)
        level = next_level
    return Schema(classes, relations)


def _relations_of(schema: Schema) -> list:
    return sorted(schema.relation_definitions, key=lambda r: r.name)


def star_queries(schema: Schema, count: int, arms: int,
                 seed: int = 0) -> list[str]:
    """``count`` star-shaped queries: a class atom on the center variable
    plus ``arms`` relation atoms radiating from it."""
    rng = random.Random(seed)
    relations = _relations_of(schema)
    names = sorted(schema.class_symbols)
    queries = []
    for _ in range(count):
        center = rng.choice(names)
        atoms = [f"{center}(x)"]
        for arm in range(arms):
            rdef = rng.choice(relations)
            atoms.append(f"{rdef.name}(x, y{arm})")
        queries.append(f"q(x) :- {', '.join(atoms)}")
    return queries


def chain_queries(schema: Schema, count: int, length: int,
                  seed: int = 0) -> list[str]:
    """``count`` chain-shaped queries of ``length`` relation atoms
    composed head-to-tail, anchored by a class atom on the first
    variable."""
    rng = random.Random(seed)
    relations = _relations_of(schema)
    names = sorted(schema.class_symbols)
    queries = []
    for _ in range(count):
        atoms = [f"{rng.choice(names)}(x0)"]
        for i in range(length):
            rdef = rng.choice(relations)
            atoms.append(f"{rdef.name}(x{i}, x{i + 1})")
        queries.append(f"q(x0) :- {', '.join(atoms)}")
    return queries


def boolean_queries(schema: Schema, count: int, seed: int = 0) -> list[str]:
    """``count`` boolean (empty-head) queries mixing both shapes."""
    rng = random.Random(seed)
    sources = (star_queries(schema, count, 2, seed=rng.randint(0, 2 ** 30))
               + chain_queries(schema, count, 2,
                               seed=rng.randint(0, 2 ** 30)))
    picked = rng.sample(sources, count)
    return [source.replace("q(x0)", "q()").replace("q(x)", "q()")
            for source in picked]


def query_workload(schema: Schema, *, per_shape: int = 5,
                   arms: int = 2, length: int = 3,
                   seed: int = 0) -> list[tuple[str, str]]:
    """A labeled suite of ``(shape, query source)`` pairs over all three
    shapes — the unit the query benchmarks iterate."""
    suite = []
    suite.extend(("star", q)
                 for q in star_queries(schema, per_shape, arms, seed=seed))
    suite.extend(("chain", q)
                 for q in chain_queries(schema, per_shape, length,
                                        seed=seed + 1))
    suite.extend(("boolean", q)
                 for q in boolean_queries(schema, per_shape, seed=seed + 2))
    return suite


def sample_database(schema: Schema, n_objects: int, seed: int = 0) -> dict:
    """A seeded database document over ``schema`` (JSON shape of
    :func:`repro.qa.data.database_from_document`).

    Objects are spread across the declared classes; relations get tuples
    whose role fillers are drawn uniformly.  The document asserts
    memberships only where drawn — open-world, like real inputs — so
    certain-answer evaluation has genuine inference to do.
    """
    rng = random.Random(seed)
    names = sorted(schema.class_symbols)
    objects = {}
    for index in range(n_objects):
        member_of = rng.sample(names, rng.randint(0, min(2, len(names))))
        objects[f"o{index}"] = sorted(member_of)
    pool = sorted(objects)
    relation_rows = []
    for rdef in _relations_of(schema):
        for _ in range(max(1, n_objects // 2)):
            assignment = {role: rng.choice(pool) for role in rdef.roles}
            relation_rows.append([rdef.name, assignment])
    return {"objects": objects, "relations": relation_rows}
