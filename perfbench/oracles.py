"""Reference answers computed without the code under test.

* :func:`isa_only_verdicts` — class satisfiability of an isa-only schema
  (``clustered_schema``) by brute force: a class is satisfiable iff some
  set of classes of its connected component contains it and satisfies
  the isa formula of every member.
* :class:`ChaseOracle` — certain answers of a conjunctive query over a
  database in the positive fragment (single positive literal ``isa`` and
  role clauses, lower-bound participations), such as ``taxonomy_schema``:
  the database is saturated under the subclass, role-typing and
  mandatory-participation rules, which gives a universal model, and the
  query is evaluated over it keeping rows of named objects only.

Both read the generated :class:`~repro.core.schema.Schema` values as
plain data; neither calls the reasoner, the rewriter or the evaluator.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict


class OracleError(ValueError):
    """The input lies outside the fragment an oracle decides."""


# ----------------------------------------------------------------------
# Brute-force satisfiability of isa-only schemas
# ----------------------------------------------------------------------
def _clause_holds(clause, members: frozenset) -> bool:
    return any((lit.name in members) == lit.positive for lit in clause)


def isa_only_verdicts(schema) -> dict[str, bool]:
    """``{class: satisfiable}`` for a schema of plain isa formulas."""
    definitions = {cdef.name: cdef for cdef in schema.class_definitions}
    if schema.relation_definitions:
        raise OracleError("isa-only oracle: schema declares relations")
    neighbours: dict[str, set] = defaultdict(set)
    for name, cdef in definitions.items():
        if cdef.attributes or cdef.participates:
            raise OracleError(f"isa-only oracle: {name} has attributes")
        for clause in cdef.isa:
            for lit in clause:
                neighbours[name].add(lit.name)
                neighbours[lit.name].add(name)
    verdicts: dict[str, bool] = {}
    seen: set = set()
    for start in sorted(definitions):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            for other in neighbours[frontier.pop()]:
                if other not in component:
                    component.add(other)
                    frontier.append(other)
        seen |= component
        if len(component) > 16:
            raise OracleError("isa-only oracle: component too large")
        names = sorted(component)
        satisfiable: set = set()
        for size in range(1, len(names) + 1):
            for chosen in itertools.combinations(names, size):
                members = frozenset(chosen)
                if all(_clause_holds(clause, members)
                       for name in chosen
                       for clause in definitions[name].isa):
                    satisfiable |= members
        for name in names:
            verdicts[name] = name in satisfiable
    return verdicts


# ----------------------------------------------------------------------
# Conjunctive queries: surface syntax and the chase
# ----------------------------------------------------------------------
_ATOM = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(([^()]*)\)")


def parse_cq(source: str) -> tuple[tuple[str, ...], list[tuple]]:
    """``"q(x) :- A(x), r(x, y)"`` → ``(("x",), [("A", ("x",)), ...])``.

    Only variables are supported as terms (the generated queries use no
    constants)."""
    head, sep, body = source.partition(":-")
    if not sep:
        raise OracleError(f"not a conjunctive query: {source!r}")
    head_atom = _ATOM.fullmatch(head.strip())
    if head_atom is None:
        raise OracleError(f"bad query head: {head!r}")
    head_vars = tuple(term.strip() for term in head_atom.group(2).split(",")
                      if term.strip())
    atoms = [(match.group(1),
              tuple(term.strip() for term in match.group(2).split(",")))
             for match in _ATOM.finditer(body)]
    for _, terms in atoms:
        if any(not term.isidentifier() for term in terms):
            raise OracleError(f"only variable terms supported: {source!r}")
    return head_vars, atoms


def _single_positive(formula, where: str) -> list[str]:
    names = []
    for clause in formula:
        literals = list(clause)
        if len(literals) != 1 or not literals[0].positive:
            raise OracleError(f"chase oracle: {where} is not positive Horn")
        names.append(literals[0].name)
    return names


class ChaseOracle:
    """Certain answers over one positive-fragment schema."""

    def __init__(self, schema):
        self._supers: dict[str, list[str]] = {}
        self._mandatory: dict[str, list[tuple[str, str]]] = defaultdict(list)
        self._roles: dict[str, tuple[str, ...]] = {}
        self._typing: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for cdef in schema.class_definitions:
            if cdef.attributes:
                raise OracleError(f"chase oracle: {cdef.name} has attributes")
            self._supers[cdef.name] = _single_positive(cdef.isa, cdef.name)
            for part in cdef.participates:
                if part.card.lower >= 1:
                    self._mandatory[cdef.name].append(
                        (part.relation, part.role))
        for rdef in schema.relation_definitions:
            self._roles[rdef.name] = tuple(rdef.roles)
            for clause in rdef.constraints:
                literals = list(clause.literals)
                if len(literals) != 1:
                    raise OracleError(f"chase oracle: {rdef.name} has a "
                                      f"disjunctive role clause")
                for name in _single_positive(literals[0].formula, rdef.name):
                    self._typing[rdef.name].append((literals[0].role, name))

    def chase(self, document: dict):
        """Saturate a database document into a universal model."""
        named = frozenset(document["objects"])
        classes = {obj: set(members)
                   for obj, members in document["objects"].items()}
        tuples: dict[str, set] = defaultdict(set)
        for relation, assignment in document.get("relations", []):
            roles = self._roles[relation]
            tuples[relation].add(tuple(assignment[role] for role in roles))
        fresh = itertools.count()
        while True:
            self._close_typing(classes, tuples)
            pending = {}
            for obj, members in classes.items():
                for name in members:
                    for relation, role in self._mandatory.get(name, ()):
                        position = self._roles[relation].index(role)
                        if any(row[position] == obj
                               for row in tuples[relation]):
                            continue
                        pending[(relation, position, obj)] = len(
                            self._roles[relation])
            if not pending:
                return named, classes, tuples
            for (relation, position, obj), arity in pending.items():
                row = tuple(obj if index == position else f"_w{next(fresh)}"
                            for index in range(arity))
                tuples[relation].add(row)
                for member in row:
                    classes.setdefault(member, set())

    def _close_typing(self, classes: dict, tuples: dict) -> None:
        changed = True
        while changed:
            changed = False
            for relation, rules in self._typing.items():
                roles = self._roles[relation]
                for role, name in rules:
                    position = roles.index(role)
                    for row in tuples[relation]:
                        members = classes.setdefault(row[position], set())
                        if name not in members:
                            members.add(name)
                            changed = True
            for members in classes.values():
                frontier = list(members)
                while frontier:
                    for parent in self._supers.get(frontier.pop(), ()):
                        if parent not in members:
                            members.add(parent)
                            frontier.append(parent)
                            changed = True

    def answers(self, source: str, chased) -> set:
        """The certain answer rows of one non-boolean query."""
        named, classes, tuples = chased
        head, atoms = parse_cq(source)
        if not head:
            raise OracleError(f"boolean queries not supported: {source!r}")
        extents: dict[str, list[tuple]] = {}
        for predicate, terms in atoms:
            if predicate in extents:
                continue
            if len(terms) == 1 and predicate not in self._roles:
                extents[predicate] = [(obj,) for obj, members
                                      in classes.items()
                                      if predicate in members]
            else:
                extents[predicate] = list(tuples.get(predicate, ()))
        index: dict = {}

        def rows_matching(predicate, position, value):
            key = (predicate, position)
            if key not in index:
                table = defaultdict(list)
                for row in extents[predicate]:
                    table[row[position]].append(row)
                index[key] = table
            return index[key].get(value, ())

        results: set = set()

        def search(remaining: list, binding: dict) -> None:
            if not remaining:
                results.add(tuple(binding[var] for var in head))
                return
            # Most constrained atom first: one with a bound variable.
            chosen = next((i for i, (_, terms) in enumerate(remaining)
                           if any(t in binding for t in terms)), 0)
            predicate, terms = remaining[chosen]
            rest = remaining[:chosen] + remaining[chosen + 1:]
            bound = next((i for i, t in enumerate(terms) if t in binding),
                         None)
            candidates = (extents[predicate] if bound is None else
                          rows_matching(predicate, bound,
                                        binding[terms[bound]]))
            for row in candidates:
                extended = dict(binding)
                if all(extended.setdefault(term, value) == value
                       for term, value in zip(terms, row)):
                    search(rest, extended)

        search(list(atoms), {})
        return {row for row in results if all(obj in named for obj in row)}
