"""An incremental in-memory instance store governed by a CAR schema.

:class:`Database` is the "legal database state" of Section 2.3 made
operational: objects, attribute links, and relation tuples are inserted and
removed incrementally, and integrity is enforced transactionally — a
transaction that would leave the state violating any satisfaction condition
of the schema rolls back with an :class:`IntegrityError` listing the
violations.

Beyond storage, the store answers the type-inference questions the paper
lists as applications of schema reasoning:

* :meth:`Database.implied_classes` — classes an object *must* also belong
  to in any completion of the state (from the supported compound classes);
* :meth:`Database.admissible_classes` — classes an object could still be
  added to without making its membership combination unsatisfiable.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable, Iterator, Optional

from ..core.errors import SemanticsError
from ..core.schema import Schema
from .checker import Violation, check_model
from .interpretation import Interpretation, LabeledTuple

__all__ = ["Database", "IntegrityError"]

Obj = Hashable


class IntegrityError(SemanticsError):
    """A transaction would violate the schema; carries the violations."""

    def __init__(self, violations: list[Violation]):
        lines = "\n  ".join(str(v) for v in violations[:8])
        more = "" if len(violations) <= 8 else f"\n  … {len(violations) - 8} more"
        super().__init__(f"transaction violates the schema:\n  {lines}{more}")
        self.violations = tuple(violations)


class Database:
    """A mutable database state validated against a CAR schema."""

    def __init__(self, schema: Schema):
        self._schema = schema
        self._objects: set[Obj] = set()
        self._classes: dict[str, set[Obj]] = {}
        self._attributes: dict[str, set[tuple[Obj, Obj]]] = {}
        self._relations: dict[str, set[LabeledTuple]] = {}
        self._in_transaction = False
        self._supported_compounds: Optional[tuple[frozenset, ...]] = None

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, obj: Obj, *classes: str) -> Obj:
        """Add an object, optionally into the given classes."""
        self._objects.add(obj)
        for name in classes:
            self.add_to_class(obj, name)
        return obj

    def delete(self, obj: Obj) -> None:
        """Remove an object and every link/tuple that touches it."""
        if obj not in self._objects:
            raise SemanticsError(f"object {obj!r} is not in the database")
        self._objects.discard(obj)
        for ext in self._classes.values():
            ext.discard(obj)
        for name, pairs in self._attributes.items():
            self._attributes[name] = {
                p for p in pairs if obj not in (p[0], p[1])}
        for name, tuples in self._relations.items():
            self._relations[name] = {
                t for t in tuples if obj not in t.objects()}

    def add_to_class(self, obj: Obj, name: str) -> None:
        if name not in self._schema.class_symbols:
            raise SemanticsError(f"class {name!r} is not in the schema")
        if obj not in self._objects:
            raise SemanticsError(f"object {obj!r} is not in the database")
        self._classes.setdefault(name, set()).add(obj)

    def remove_from_class(self, obj: Obj, name: str) -> None:
        self._classes.get(name, set()).discard(obj)

    def set_attribute(self, attr: str, source: Obj, target: Obj) -> None:
        """Add the pair ``(source, target)`` to the attribute's extension."""
        if attr not in self._schema.attribute_symbols:
            raise SemanticsError(f"attribute {attr!r} is not in the schema")
        for obj in (source, target):
            if obj not in self._objects:
                raise SemanticsError(f"object {obj!r} is not in the database")
        self._attributes.setdefault(attr, set()).add((source, target))

    def unset_attribute(self, attr: str, source: Obj, target: Obj) -> None:
        self._attributes.get(attr, set()).discard((source, target))

    def add_tuple(self, relation: str, **assignment: Obj) -> LabeledTuple:
        """Add a labeled tuple to a relation's extension."""
        rdef = self._schema.relation(relation)
        if set(assignment) != set(rdef.roles):
            raise SemanticsError(
                f"relation {relation} needs exactly roles {list(rdef.roles)}, "
                f"got {sorted(assignment)}")
        for obj in assignment.values():
            if obj not in self._objects:
                raise SemanticsError(f"object {obj!r} is not in the database")
        tup = LabeledTuple(assignment)
        self._relations.setdefault(relation, set()).add(tup)
        return tup

    def remove_tuple(self, relation: str, **assignment: Obj) -> None:
        self._relations.get(relation, set()).discard(LabeledTuple(assignment))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def snapshot(self) -> Interpretation:
        """The current state as an immutable interpretation.

        The mutators keep every extension inside the database's objects,
        so the snapshot skips the interpretation's containment check."""
        universe = self._objects or {object()}
        return Interpretation._trusted(
            frozenset(universe),
            {name: frozenset(ext) for name, ext in self._classes.items()},
            {name: frozenset(ext) for name, ext in self._attributes.items()},
            {name: frozenset(ext) for name, ext in self._relations.items()},
        )

    def violations(self) -> list[Violation]:
        """Every satisfaction condition the current state violates."""
        if not self._objects:
            return []
        return check_model(self.snapshot(), self._schema)

    def is_consistent(self) -> bool:
        return not self.violations()

    @contextmanager
    def transaction(self) -> Iterator["Database"]:
        """All-or-nothing mutation scope.

        On exit the state is validated; violations roll everything back and
        raise :class:`IntegrityError`.  Transactions do not nest.
        """
        if self._in_transaction:
            raise SemanticsError("transactions do not nest")
        saved = (set(self._objects),
                 {k: set(v) for k, v in self._classes.items()},
                 {k: set(v) for k, v in self._attributes.items()},
                 {k: set(v) for k, v in self._relations.items()})
        self._in_transaction = True
        try:
            yield self
            found = self.violations()
            if found:
                raise IntegrityError(found)
        except BaseException:
            self._objects, self._classes, self._attributes, self._relations = saved
            raise
        finally:
            self._in_transaction = False

    # ------------------------------------------------------------------
    # Type inference (applications named in Section 2.3)
    # ------------------------------------------------------------------
    def _compounds(self) -> tuple[frozenset, ...]:
        if self._supported_compounds is None:
            from ..reasoner.satisfiability import Reasoner

            reasoner = Reasoner(self._schema)
            self._supported_compounds = reasoner.supported_compound_classes()
        return self._supported_compounds

    def classes_of(self, obj: Obj) -> frozenset[str]:
        return frozenset(name for name, ext in self._classes.items()
                         if obj in ext)

    def implied_classes(self, obj: Obj) -> frozenset[str]:
        """Classes the object must belong to in any legal completion.

        Intersection of the supported compound classes extending its current
        memberships; empty when the current combination is unsatisfiable.
        """
        current = self.classes_of(obj)
        candidates = [members for members in self._compounds()
                      if current <= members]
        if not candidates:
            return frozenset()
        implied = frozenset.intersection(*map(frozenset, candidates))
        return frozenset(implied) - current

    def admissible_classes(self, obj: Obj) -> frozenset[str]:
        """Classes the object could still join without refuting its type."""
        current = self.classes_of(obj)
        admissible: set[str] = set()
        for members in self._compounds():
            if current <= members:
                admissible.update(members)
        return frozenset(admissible) - current

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, obj: Obj) -> bool:
        return obj in self._objects

    def __repr__(self) -> str:
        return (f"Database({len(self._objects)} objects, "
                f"{sum(map(len, self._classes.values()))} memberships, "
                f"{sum(map(len, self._attributes.values()))} links, "
                f"{sum(map(len, self._relations.values()))} tuples)")
