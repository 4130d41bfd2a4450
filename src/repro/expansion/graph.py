"""The schema graph ``G_S``, clusters, and hierarchy detection (Sections 4.3–4.4).

Theorem 4.6: classes not connected by a path in ``G_S`` may be assumed
pairwise disjoint without affecting class satisfiability.  The connected
components of ``G_S`` are the paper's **clusters**; compound classes then
only mix classes of a single cluster, which can shrink the expansion
dramatically.

Our arc set follows the paper's three criteria, plus a fourth that
mirrors the third for attributes, and errs on the side of *more* arcs
(extra arcs only weaken the optimization, never correctness):

1. ``C2`` appears positively in the isa-formula of ``C1`` — arc ``C1–C2``;
2. classes appearing positively in the attribute part of the same class
   definition are pairwise connected, and each is connected to the defined
   class (the defined class itself can be an attribute filler through
   inverse links);
3. for each relation role, classes appearing positively in the role's
   formulae across all role-clauses are pairwise connected, and classes
   *participating* in that role are connected to them as well;
4. for each endpoint of each attribute ``a``, the classes that can stand
   there are pairwise connected.  The filler side of ``a`` groups the
   positive filler classes of every ``a`` spec with the classes declaring
   ``(inv a)``; the domain side groups the classes declaring ``a`` with
   the positive filler classes of every ``(inv a)`` spec.  Without it, a
   class declaring ``(inv a) : (1, 1) A`` while disjoint from ``A`` lost
   its only arc in step 3, although each of its instances is the filler
   of some ``A`` and so belongs to that ``a`` spec's filler class.

Arcs between pairs the disjointness table already proves disjoint are
removed (the paper's step 3).

Section 4.4's special case — **generalization hierarchies** — is detected by
:func:`hierarchy_forest`; for such schemas the consistent compound classes
are exactly the root-to-node paths, computed directly by
:func:`hierarchy_compound_classes`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from ..core.formulas import Formula
from ..core.schema import Schema
from .tables import SchemaTables

__all__ = [
    "schema_graph",
    "clusters",
    "impose_cluster_disjointness",
    "hierarchy_forest",
    "hierarchy_compound_classes",
]


def _positive(formula: Formula) -> frozenset[str]:
    return formula.positive_classes()


def schema_graph(schema: Schema,
                 tables: Optional[SchemaTables] = None) -> dict[str, set[str]]:
    """Adjacency sets of ``G_S`` over every class symbol of the schema."""
    adjacency: dict[str, set[str]] = {name: set() for name in schema.class_symbols}

    def connect(c1: str, c2: str) -> None:
        if c1 != c2:
            adjacency[c1].add(c2)
            adjacency[c2].add(c1)

    def connect_all(group: set[str]) -> None:
        for c1, c2 in combinations(sorted(group), 2):
            connect(c1, c2)

    # Criterion 1: positive classes in isa parts.
    for cdef in schema.class_definitions:
        for positive in _positive(cdef.isa):
            connect(cdef.name, positive)

    # Criterion 2: positive classes across one class's attribute part.
    for cdef in schema.class_definitions:
        group = {cdef.name}
        for spec in cdef.attributes:
            group.update(_positive(spec.filler))
        connect_all(group)

    # Criterion 3: per relation role, positive classes in its formulae plus
    # the classes participating in that role.
    role_groups: dict[tuple[str, str], set[str]] = {}
    for rdef in schema.relation_definitions:
        for clause in rdef.constraints:
            for lit in clause:
                group = role_groups.setdefault((rdef.name, lit.role), set())
                group.update(_positive(lit.formula))
    for cdef in schema.class_definitions:
        for spec in cdef.participates:
            group = role_groups.setdefault((spec.relation, spec.role), set())
            group.add(cdef.name)
    for group in role_groups.values():
        connect_all(group)

    # Criterion 4: per attribute endpoint, the classes declaring the
    # reference on that side plus the positive fillers of the reference
    # pointing the other way.  Keyed by (attribute, is the filler side).
    endpoint_groups: dict[tuple[str, bool], set[str]] = {}
    for cdef in schema.class_definitions:
        for spec in cdef.attributes:
            name, inverse = spec.ref.name, spec.ref.inverse
            endpoint_groups.setdefault((name, inverse), set()).add(cdef.name)
            endpoint_groups.setdefault((name, not inverse), set()).update(
                _positive(spec.filler))
    for group in endpoint_groups.values():
        connect_all(group)

    # Step 3 of the construction: drop arcs between provably disjoint pairs.
    if tables is not None:
        for name, neighbours in adjacency.items():
            for other in [n for n in neighbours if tables.are_disjoint(name, n)]:
                neighbours.discard(other)
                adjacency[other].discard(name)

    return adjacency


def clusters(schema: Schema,
             tables: Optional[SchemaTables] = None) -> list[frozenset[str]]:
    """Connected components of ``G_S``, sorted for determinism."""
    adjacency = schema_graph(schema, tables)
    seen: set[str] = set()
    components: list[frozenset[str]] = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        seen.update(component)
        components.append(frozenset(component))
    return components


def impose_cluster_disjointness(schema: Schema,
                                tables: Optional[SchemaTables] = None) -> Schema:
    """The schema ``S'`` of Theorem 4.6: explicit disjointness between every
    pair of classes in different clusters.

    Satisfiability of every class is preserved; the test suite checks this
    against the brute-force oracle.
    """
    from ..core.formulas import Clause, Lit
    from ..core.schema import ClassDef

    component_of: dict[str, int] = {}
    for index, component in enumerate(clusters(schema, tables)):
        for name in component:
            component_of[name] = index

    symbols = sorted(schema.class_symbols)
    new_classes: list[ClassDef] = []
    for name in symbols:
        cdef = schema.definition(name)
        foreign = [other for other in symbols
                   if other != name and component_of[other] != component_of[name]]
        if not foreign:
            if name in {c.name for c in schema.class_definitions}:
                new_classes.append(cdef)
            continue
        isa = cdef.isa
        for other in foreign:
            isa = isa & Clause((Lit(other, positive=False),))
        new_classes.append(cdef.replace(isa=isa))
    defined = {c.name for c in new_classes}
    for cdef in schema.class_definitions:
        if cdef.name not in defined:
            new_classes.append(cdef)
    return Schema(new_classes, schema.relation_definitions)


# ----------------------------------------------------------------------
# Generalization hierarchies (Section 4.4)
# ----------------------------------------------------------------------
def hierarchy_forest(schema: Schema) -> Optional[dict[str, Optional[str]]]:
    """Detect the generalization-hierarchy shape of Section 4.4.

    Returns ``child -> parent`` (roots map to None) when the schema is
    union-free with isa parts consisting solely of at most one positive unit
    clause per class (plus any negative unit clauses, which encode the
    sibling/group disjointness the hierarchy assumes), acyclic, and without
    multiple parents.  Returns None when the schema is not of this shape.
    """
    parent: dict[str, Optional[str]] = {}
    for name in sorted(schema.class_symbols):
        cdef = schema.definition(name)
        positives: list[str] = []
        for clause in cdef.isa:
            if len(clause) != 1:
                return None
            lit = clause.literals[0]
            if lit.positive:
                positives.append(lit.name)
        if len(positives) > 1:
            return None
        parent[name] = positives[0] if positives else None
    # Acyclicity check.
    for name in parent:
        seen = {name}
        current = parent[name]
        while current is not None:
            if current in seen:
                return None
            seen.add(current)
            current = parent.get(current)
    return parent


def hierarchy_compound_classes(schema: Schema,
                               tables: Optional[SchemaTables] = None
                               ) -> Optional[list[frozenset[str]]]:
    """Compound classes of a generalization hierarchy: root-to-node paths.

    The closed form is sound only under the hierarchy assumption the paper
    inherits from [BCN92]: classes that are not ancestor-related must be
    pairwise disjoint.  We therefore verify, via the preselection tables,
    that every incomparable pair is provably disjoint; when that holds, each
    consistent compound class is a chain closed under parents — exactly the
    ancestor path of its most specific class — so there is one per class
    (plus the empty one), matching Section 4.4's count.  Returns None when
    the schema is not of this shape.
    """
    parent = hierarchy_forest(schema)
    if parent is None:
        return None

    def ancestors(name: str) -> frozenset[str]:
        path = {name}
        current = parent[name]
        while current is not None:
            path.add(current)
            current = parent[current]
        return frozenset(path)

    if tables is None:
        from .tables import build_tables

        tables = build_tables(schema)
    symbols = sorted(schema.class_symbols)
    paths = {name: ancestors(name) for name in symbols}
    for i, c1 in enumerate(symbols):
        for c2 in symbols[i + 1:]:
            comparable = c1 in paths[c2] or c2 in paths[c1]
            if not comparable and not tables.are_disjoint(c1, c2):
                return None

    # Declared disjointness may also refute a path outright (a class disjoint
    # from its own ancestor); filter those.
    from .compound import is_consistent_compound_class

    result: list[frozenset[str]] = [frozenset()]
    result.extend(path for path in paths.values()
                  if is_consistent_compound_class(schema, path))
    return result
