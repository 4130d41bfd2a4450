"""Inclusion and disjointness tables — the preselection step of Section 4.3.

The paper proposes two data structures filled during a *preselection* pass:

* an **inclusion table** storing pairs ``(C1, C2)`` such that ``C1`` is
  necessarily included in ``C2`` in every model;
* a **disjointness table** storing pairs that are disjoint in every model.

Criterion (a): derive inclusion/disjointness that *logically follows* from
the isa parts.  Complete deduction is NP-complete, so — as the paper
suggests, citing [Dal92]'s tractable fragments — we use a sound,
polynomial, incomplete procedure with two strength levels:

* ``deduction="unit"`` — unit-clause propagation: a unit clause ``(D)`` in
  the isa of ``C`` yields ``C ⊑ D``, a unit ``(¬D)`` yields disjointness,
  closed transitively.
* ``deduction="binary"`` (default) — additionally resolves **two-literal
  clauses** against already-derived literals: from ``C ⊑ D``, a clause
  ``(L1 ∨ L2)`` in the isa of ``D``, and a derived ``¬L1``, conclude
  ``L2`` — iterated to a fixpoint (the Krom-fragment closure).

The tables prune the compound-class enumeration: every entry removes the
quarter of candidate compound classes violating it.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional

from ..core.formulas import Lit
from ..core.schema import Schema

__all__ = ["SchemaTables", "build_tables"]


class SchemaTables:
    """Preselection tables: derived inclusions, disjointnesses, empty classes.

    For every class ``C`` the closure computes ``implied(C)`` — literals
    true of every instance of ``C``.  ``superclasses(C)`` is its positive
    part; ``are_disjoint(C1, C2)`` holds when the closures clash;
    ``empty_classes`` holds classes whose own closure is contradictory.
    """

    def __init__(self, schema: Schema, deduction: str = "binary", *,
                 previous: Optional["SchemaTables"] = None,
                 changed: Iterable[str] = ()):
        if deduction not in ("unit", "binary"):
            raise ValueError(f"unknown deduction level {deduction!r}")
        self._schema = schema
        self._deduction = deduction
        symbols = sorted(schema.class_symbols)

        # Rows kept from ``previous``: a row reads only the definitions of
        # the classes in its own positive part, so it is final when none of
        # them changed (a vanished class leaves a changed definition on the
        # way to it).  Cluster membership is no substitute: a provably
        # empty class sits alone in G_S, yet its row reads other clusters.
        kept: dict[str, frozenset[Lit]] = {}
        if previous is not None and previous._deduction == deduction:
            changed = frozenset(changed)
            old_up = previous._up
            kept = {name: previous._implied[name] for name in symbols
                    if name in old_up and old_up[name].isdisjoint(changed)}
        pending = [name for name in symbols if name not in kept]

        # implied[C]: literals that hold for every instance of C.
        implied: dict[str, AbstractSet[Lit]] = dict(kept)
        for name in pending:
            implied[name] = {Lit(name)}
        # Short clauses per class: units seed directly, binaries resolve.
        units: dict[str, list[Lit]] = {name: [] for name in symbols}
        binaries: dict[str, list[tuple[Lit, Lit]]] = {name: [] for name in symbols}
        for name in symbols:
            for clause in schema.definition(name).isa:
                if len(clause) == 1:
                    units[name].append(clause.literals[0])
                elif len(clause) == 2 and deduction == "binary":
                    first, second = clause.literals
                    binaries[name].append((first, second))

        changing = True
        while changing:
            changing = False
            for name in pending:
                bag = implied[name]
                before = len(bag)
                for lit in list(bag):
                    if not lit.positive:
                        continue
                    # Inherit the closure of every implied superclass.
                    bag.update(units[lit.name])
                    bag.update(implied[lit.name])
                    # Resolve its binary clauses against derived negations.
                    for first, second in binaries[lit.name]:
                        if ~first in bag:
                            bag.add(second)
                        if ~second in bag:
                            bag.add(first)
                if len(bag) != before:
                    changing = True

        self._implied = {name: frozenset(bag) for name, bag in implied.items()}
        self._up = {
            name: frozenset(lit.name for lit in bag if lit.positive)
            for name, bag in self._implied.items()
        }
        self._neg = {
            name: frozenset(lit.name for lit in bag if not lit.positive)
            for name, bag in self._implied.items()
        }

        self._empty: set[str] = set()
        for name in symbols:
            if self._up[name] & self._neg[name]:
                self._empty.add(name)
        # A class included in an empty class is itself empty.
        for name in symbols:
            if self._up[name] & self._empty:
                self._empty.add(name)

        # Pairs of kept rows keep their verdict; only pairs touching a
        # recomputed row are checked.
        self._disjoint: set[frozenset[str]] = set()
        if kept:
            dropped = set(previous._implied) - kept.keys()
            self._disjoint = {pair for pair in previous._disjoint
                              if pair.isdisjoint(dropped)}
            for c1 in pending:
                for c2 in kept:
                    if self._clash(c1, c2):
                        self._disjoint.add(frozenset((c1, c2)))
        for i, c1 in enumerate(pending):
            for c2 in pending[i + 1:]:
                if self._clash(c1, c2):
                    self._disjoint.add(frozenset((c1, c2)))

    def _clash(self, c1: str, c2: str) -> bool:
        """Do the closures of ``c1`` and ``c2`` contradict each other?"""
        if self._up[c1] & self._neg[c2] or self._up[c2] & self._neg[c1]:
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def deduction(self) -> str:
        return self._deduction

    def implied_literals(self, name: str) -> frozenset[Lit]:
        """Every literal the closure derives for instances of ``name``."""
        return self._implied.get(name, frozenset((Lit(name),)))

    def superclasses(self, name: str) -> frozenset[str]:
        """Classes that provably include ``name`` (reflexive)."""
        return self._up.get(name, frozenset((name,)))

    def includes(self, sub: str, sup: str) -> bool:
        """True when the table proves ``sub ⊑ sup``."""
        return sup in self.superclasses(sub)

    def are_disjoint(self, c1: str, c2: str) -> bool:
        """True when the table proves ``c1`` and ``c2`` share no instance."""
        if c1 == c2:
            return c1 in self._empty
        return frozenset((c1, c2)) in self._disjoint

    @property
    def empty_classes(self) -> frozenset[str]:
        """Classes refuted outright by the closure."""
        return frozenset(self._empty)

    @property
    def disjoint_pairs(self) -> frozenset[frozenset[str]]:
        return frozenset(self._disjoint)

    def why_empty(self, name: str) -> str | None:
        """A human-readable derivation of why ``name`` is provably empty.

        Names the contradicting pair from the closure; None when the table
        has no refutation for ``name``.
        """
        if name not in self._empty:
            return None
        conflicting = sorted(self._up[name] & self._neg[name])
        if conflicting:
            witness = conflicting[0]
            includer = next(
                (anc for anc in sorted(self._up[name])
                 if witness in self._neg.get(anc, frozenset()) and anc != name),
                None)
            via = f" via {includer}" if includer else ""
            return (f"{name} provably implies both {witness} and "
                    f"not {witness}{via}")
        ancestor = next(iter(sorted(self._up[name] & self._empty - {name})),
                        None)
        if ancestor:
            return f"{name} is included in the provably empty class {ancestor}"
        return f"{name} is refuted by propagation over the isa parts"

    # ------------------------------------------------------------------
    # Pruning interface for the enumerator
    # ------------------------------------------------------------------
    def closure(self, members: AbstractSet[str]) -> frozenset[str]:
        """All classes a compound class containing ``members`` must contain."""
        result: set[str] = set()
        for name in members:
            result.update(self.superclasses(name))
        return frozenset(result)

    def admissible(self, members: Iterable[str]) -> bool:
        """False when ``members`` hits an empty class, misses a forced
        superclass, or contains a provably disjoint pair — such a compound
        class cannot be consistent."""
        member_list = list(members)
        member_set = set(member_list)
        for name in member_list:
            if name in self._empty:
                return False
            if not self.superclasses(name) <= member_set:
                return False
        for i, c1 in enumerate(member_list):
            for c2 in member_list[i + 1:]:
                if frozenset((c1, c2)) in self._disjoint:
                    return False
        return True


def build_tables(schema: Schema, deduction: str = "binary", *,
                 previous: Optional[SchemaTables] = None,
                 changed: Iterable[str] = ()) -> SchemaTables:
    """Run the preselection pass and return the filled tables.

    With ``previous`` (the tables of an earlier version of the schema) and
    ``changed`` (the classes whose definitions differ from that version's),
    every row whose positive part holds no changed class is reused, and
    only the other rows, their emptiness and the disjointness pairs that
    touch them are computed.  The result equals a full build.
    """
    return SchemaTables(schema, deduction, previous=previous,
                        changed=changed)
