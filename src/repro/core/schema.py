"""CAR schema AST: class definitions, relation definitions, whole schemas.

A CAR schema (Section 2.2 of the paper) is a collection of *class
definitions* and *relation definitions* over an alphabet partitioned into
class symbols ``C``, attribute symbols ``A``, relation symbols ``R``, and
role symbols ``U``.  This module provides immutable definition objects plus
the :class:`Schema` container, which validates all cross-references on
construction and exposes the derived alphabets.

The ergonomic aliases :data:`Attr`, :data:`Part`, :func:`inv` let schemas be
written compactly::

    course = ClassDef(
        "Course",
        isa=~Lit("Person"),
        attributes=[Attr("taught_by", Card(1, 1), Lit("Professor") | Lit("Grad_Student"))],
        participates=[Part("Enrollment", "enrolled_in", Card(5, 100))],
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .cardinality import ANY, Card
from .errors import SchemaError
from .formulas import TOP, Formula, FormulaLike, as_formula

__all__ = [
    "AttrRef",
    "inv",
    "AttributeSpec",
    "Attr",
    "ParticipationSpec",
    "Part",
    "ClassDef",
    "RoleLiteral",
    "RoleClause",
    "RelationDef",
    "Schema",
]


# ----------------------------------------------------------------------
# Attribute references:  A  or  (inv A)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class AttrRef:
    """Reference to an attribute function: the attribute itself or its inverse.

    ``AttrRef("teaches")`` denotes the function of attribute ``teaches``;
    ``AttrRef("teaches", inverse=True)`` denotes ``(inv teaches)``.
    """

    name: str
    inverse: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute reference needs a nonempty name, got {self.name!r}")

    def flipped(self) -> "AttrRef":
        """The reference to the opposite direction of the same attribute."""
        return AttrRef(self.name, not self.inverse)

    def __str__(self) -> str:
        return f"(inv {self.name})" if self.inverse else self.name


def inv(name: str) -> AttrRef:
    """Shorthand for the inverse-attribute reference ``(inv name)``."""
    return AttrRef(name, inverse=True)


def _as_attr_ref(value: Union[str, AttrRef]) -> AttrRef:
    if isinstance(value, AttrRef):
        return value
    if isinstance(value, str):
        return AttrRef(value)
    raise SchemaError(f"cannot interpret {value!r} as an attribute reference")


# ----------------------------------------------------------------------
# Pieces of a class definition
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class AttributeSpec:
    """One line of an ``attributes`` part: ``att : (u, v) F``.

    Every instance of the defined class must have between ``card.lower`` and
    ``card.upper`` links through ``ref``, all of whose fillers are instances
    of ``filler``.
    """

    ref: AttrRef
    card: Card
    filler: Formula

    def __init__(self, ref: Union[str, AttrRef], card: Card = ANY,
                 filler: FormulaLike = TOP):
        object.__setattr__(self, "ref", _as_attr_ref(ref))
        if not isinstance(card, Card):
            raise SchemaError(f"attribute cardinality must be a Card, got {card!r}")
        object.__setattr__(self, "card", card.validate_declared())
        object.__setattr__(self, "filler", as_formula(filler))

    def __str__(self) -> str:
        return f"{self.ref} : {self.card} {self.filler}"


@dataclass(frozen=True, slots=True)
class ParticipationSpec:
    """One line of a ``participates in`` part: ``R[U] : (x, y)``.

    Every instance of the defined class must occur in between ``card.lower``
    and ``card.upper`` tuples of relation ``relation`` in role ``role``.
    """

    relation: str
    role: str
    card: Card

    def __init__(self, relation: str, role: str, card: Card = ANY):
        if not relation or not isinstance(relation, str):
            raise SchemaError(f"participation needs a relation name, got {relation!r}")
        if not role or not isinstance(role, str):
            raise SchemaError(f"participation needs a role name, got {role!r}")
        if not isinstance(card, Card):
            raise SchemaError(f"participation cardinality must be a Card, got {card!r}")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "card", card.validate_declared())

    def __str__(self) -> str:
        return f"{self.relation}[{self.role}] : {self.card}"


#: Ergonomic aliases used throughout examples and tests.
Attr = AttributeSpec
Part = ParticipationSpec


@dataclass(frozen=True)
class ClassDef:
    """A class definition: name, isa-formula, attribute and participation parts.

    Attribute references must be pairwise distinct within one definition (an
    assumption the paper makes explicitly); the same holds for
    ``(relation, role)`` pairs in the participation part.
    """

    name: str
    isa: Formula = TOP
    attributes: tuple[AttributeSpec, ...] = ()
    participates: tuple[ParticipationSpec, ...] = ()

    def __init__(self, name: str, isa: FormulaLike = TOP,
                 attributes: Sequence[AttributeSpec] = (),
                 participates: Sequence[ParticipationSpec] = ()):
        if not name or not isinstance(name, str):
            raise SchemaError(f"class definition needs a nonempty name, got {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "isa", as_formula(isa))
        attrs = tuple(attributes)
        parts = tuple(participates)
        for spec in attrs:
            if not isinstance(spec, AttributeSpec):
                raise SchemaError(f"attributes of {name} must be AttributeSpec, got {spec!r}")
        for spec in parts:
            if not isinstance(spec, ParticipationSpec):
                raise SchemaError(
                    f"participations of {name} must be ParticipationSpec, got {spec!r}"
                )
        refs = [spec.ref for spec in attrs]
        if len(refs) != len(set(refs)):
            raise SchemaError(f"class {name} mentions the same attribute reference twice")
        slots = [(spec.relation, spec.role) for spec in parts]
        if len(slots) != len(set(slots)):
            raise SchemaError(f"class {name} constrains the same relation role twice")
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "participates", parts)

    # ------------------------------------------------------------------
    @property
    def attribute_specs(self) -> Mapping[AttrRef, AttributeSpec]:
        """Attribute specs indexed by reference."""
        return {spec.ref: spec for spec in self.attributes}

    @property
    def participation_specs(self) -> Mapping[tuple[str, str], ParticipationSpec]:
        """Participation specs indexed by ``(relation, role)``."""
        return {(spec.relation, spec.role): spec for spec in self.participates}

    def mentioned_classes(self) -> frozenset[str]:
        """Class symbols occurring in the isa part or any attribute filler."""
        mentioned = set(self.isa.classes())
        for spec in self.attributes:
            mentioned.update(spec.filler.classes())
        return frozenset(mentioned)

    def syntactic_size(self) -> int:
        """Number of symbol occurrences, the paper's measure of schema size."""
        size = 1 + sum(len(clause) for clause in self.isa)
        for spec in self.attributes:
            size += 3 + sum(len(clause) for clause in spec.filler)
        size += 4 * len(self.participates)
        return size

    def replace(self, *, isa: Optional[FormulaLike] = None,
                attributes: Optional[Sequence[AttributeSpec]] = None,
                participates: Optional[Sequence[ParticipationSpec]] = None) -> "ClassDef":
        """A copy of this definition with some parts substituted."""
        return ClassDef(
            self.name,
            isa=self.isa if isa is None else isa,
            attributes=self.attributes if attributes is None else attributes,
            participates=self.participates if participates is None else participates,
        )


# ----------------------------------------------------------------------
# Pieces of a relation definition
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RoleLiteral:
    """A role-literal ``(U : F)``: the ``U``-component is an instance of ``F``."""

    role: str
    formula: Formula

    def __init__(self, role: str, formula: FormulaLike = TOP):
        if not role or not isinstance(role, str):
            raise SchemaError(f"role-literal needs a role name, got {role!r}")
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "formula", as_formula(formula))

    def __str__(self) -> str:
        return f"({self.role} : {self.formula})"


@dataclass(frozen=True, slots=True)
class RoleClause:
    """A role-clause ``(U1 : F1) ∨ … ∨ (Us : Fs)`` over pairwise distinct roles."""

    literals: tuple[RoleLiteral, ...]

    def __init__(self, *literals: RoleLiteral):
        if len(literals) == 1 and isinstance(literals[0], (list, tuple)):
            literals = tuple(literals[0])
        for lit in literals:
            if not isinstance(lit, RoleLiteral):
                raise SchemaError(f"role-clause members must be RoleLiteral, got {lit!r}")
        roles = [lit.role for lit in literals]
        if len(roles) != len(set(roles)):
            raise SchemaError("role-clause mentions the same role twice")
        if not literals:
            raise SchemaError("role-clause must contain at least one role-literal")
        object.__setattr__(self, "literals", tuple(literals))

    def __iter__(self):
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def roles(self) -> frozenset[str]:
        return frozenset(lit.role for lit in self.literals)

    def __str__(self) -> str:
        return " or ".join(str(lit) for lit in self.literals)


@dataclass(frozen=True)
class RelationDef:
    """A relation definition: name, role tuple, and role-clause constraints."""

    name: str
    roles: tuple[str, ...]
    constraints: tuple[RoleClause, ...] = ()

    def __init__(self, name: str, roles: Sequence[str],
                 constraints: Sequence[RoleClause] = ()):
        if not name or not isinstance(name, str):
            raise SchemaError(f"relation definition needs a nonempty name, got {name!r}")
        roles = tuple(roles)
        if not roles:
            raise SchemaError(f"relation {name} needs at least one role")
        if len(roles) != len(set(roles)):
            raise SchemaError(f"relation {name} has duplicate role symbols")
        normalized: list[RoleClause] = []
        for clause in constraints:
            if isinstance(clause, RoleLiteral):
                clause = RoleClause(clause)
            if not isinstance(clause, RoleClause):
                raise SchemaError(
                    f"constraints of relation {name} must be RoleClause, got {clause!r}"
                )
            undeclared = clause.roles() - set(roles)
            if undeclared:
                raise SchemaError(
                    f"relation {name} constraint mentions undeclared roles {sorted(undeclared)}"
                )
            normalized.append(clause)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "constraints", tuple(normalized))

    @property
    def arity(self) -> int:
        return len(self.roles)

    def mentioned_classes(self) -> frozenset[str]:
        """Class symbols occurring in any role-clause."""
        mentioned: set[str] = set()
        for clause in self.constraints:
            for lit in clause:
                mentioned.update(lit.formula.classes())
        return frozenset(mentioned)

    def syntactic_size(self) -> int:
        size = 1 + len(self.roles)
        for clause in self.constraints:
            for lit in clause:
                size += 1 + sum(len(c) for c in lit.formula)
        return size


# ----------------------------------------------------------------------
# The schema container
# ----------------------------------------------------------------------
class Schema:
    """A CAR schema: a validated collection of class and relation definitions.

    Class symbols may occur in formulae without having an explicit
    definition; they are then *primitive* classes with the trivial definition
    ``isa true``.  Relations referenced by participation specs, in contrast,
    must be defined (their role set is needed).  The constructor checks:

    * no duplicate class or relation definitions;
    * class, attribute, and relation alphabets are pairwise disjoint;
    * every participation references a defined relation and a declared role.
    """

    def __init__(self, classes: Iterable[ClassDef] = (),
                 relations: Iterable[RelationDef] = ()):
        self._classes: dict[str, ClassDef] = {}
        self._relations: dict[str, RelationDef] = {}
        for cdef in classes:
            if not isinstance(cdef, ClassDef):
                raise SchemaError(f"expected a ClassDef, got {cdef!r}")
            if cdef.name in self._classes:
                raise SchemaError(f"duplicate definition of class {cdef.name}")
            self._classes[cdef.name] = cdef
        for rdef in relations:
            if not isinstance(rdef, RelationDef):
                raise SchemaError(f"expected a RelationDef, got {rdef!r}")
            if rdef.name in self._relations:
                raise SchemaError(f"duplicate definition of relation {rdef.name}")
            self._relations[rdef.name] = rdef
        self._validate()
        self._class_symbols = self._collect_class_symbols()
        self._attribute_symbols = frozenset(
            spec.ref.name for cdef in self._classes.values() for spec in cdef.attributes
        )
        self._check_alphabet_partition()
        #: The canonical-form hash, stored by the first
        #: :func:`~repro.engine.session.schema_fingerprint` call.
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for cdef in self._classes.values():
            for spec in cdef.participates:
                rdef = self._relations.get(spec.relation)
                if rdef is None:
                    raise SchemaError(
                        f"class {cdef.name} participates in undefined relation {spec.relation}"
                    )
                if spec.role not in rdef.roles:
                    raise SchemaError(
                        f"class {cdef.name} participates in {spec.relation}[{spec.role}], "
                        f"but {spec.relation} has roles {list(rdef.roles)}"
                    )

    def _collect_class_symbols(self) -> frozenset[str]:
        symbols: set[str] = set(self._classes)
        for cdef in self._classes.values():
            symbols.update(cdef.mentioned_classes())
        for rdef in self._relations.values():
            symbols.update(rdef.mentioned_classes())
        return frozenset(symbols)

    def _check_alphabet_partition(self) -> None:
        overlap = self._class_symbols & set(self._relations)
        if overlap:
            raise SchemaError(f"symbols used both as class and relation: {sorted(overlap)}")
        overlap = self._class_symbols & self._attribute_symbols
        if overlap:
            raise SchemaError(f"symbols used both as class and attribute: {sorted(overlap)}")
        overlap = self._attribute_symbols & set(self._relations)
        if overlap:
            raise SchemaError(f"symbols used both as attribute and relation: {sorted(overlap)}")

    # ------------------------------------------------------------------
    # Alphabets
    # ------------------------------------------------------------------
    @property
    def class_symbols(self) -> frozenset[str]:
        """The alphabet ``C``: defined classes plus classes only mentioned."""
        return self._class_symbols

    @property
    def attribute_symbols(self) -> frozenset[str]:
        """The alphabet ``A``: attributes mentioned in any class definition."""
        return self._attribute_symbols

    @property
    def relation_symbols(self) -> frozenset[str]:
        """The alphabet ``R``: defined relations."""
        return frozenset(self._relations)

    @property
    def role_symbols(self) -> frozenset[str]:
        """The alphabet ``U``: roles declared by any relation."""
        return frozenset(role for rdef in self._relations.values() for role in rdef.roles)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def class_definitions(self) -> tuple[ClassDef, ...]:
        return tuple(self._classes.values())

    @property
    def relation_definitions(self) -> tuple[RelationDef, ...]:
        return tuple(self._relations.values())

    def definition(self, name: str) -> ClassDef:
        """The definition of class ``name`` (a trivial one if only mentioned)."""
        if name in self._classes:
            return self._classes[name]
        if name in self._class_symbols:
            return ClassDef(name)
        raise SchemaError(f"unknown class symbol {name!r}")

    def has_class(self, name: str) -> bool:
        return name in self._class_symbols

    def relation(self, name: str) -> RelationDef:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation symbol {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def attribute_refs(self) -> frozenset[AttrRef]:
        """Every attribute reference (direct or inverse) used by some class."""
        return frozenset(
            spec.ref for cdef in self._classes.values() for spec in cdef.attributes
        )

    def is_union_free(self) -> bool:
        """Section 4.1: every class-clause and role-clause is a single literal."""
        for cdef in self._classes.values():
            if not cdef.isa.is_union_free():
                return False
            if any(not spec.filler.is_union_free() for spec in cdef.attributes):
                return False
        for rdef in self._relations.values():
            for clause in rdef.constraints:
                if len(clause) != 1:
                    return False
                if any(not lit.formula.is_union_free() for lit in clause):
                    return False
        return True

    def is_negation_free(self) -> bool:
        """Section 4.1: the symbol ``¬`` appears in no definition."""
        for cdef in self._classes.values():
            if not cdef.isa.is_negation_free():
                return False
            if any(not spec.filler.is_negation_free() for spec in cdef.attributes):
                return False
        for rdef in self._relations.values():
            for clause in rdef.constraints:
                if any(not lit.formula.is_negation_free() for lit in clause):
                    return False
        return True

    def max_arity(self) -> int:
        """Largest relation arity (0 when the schema has no relations)."""
        if not self._relations:
            return 0
        return max(rdef.arity for rdef in self._relations.values())

    def syntactic_size(self) -> int:
        """Total number of symbol occurrences across all definitions."""
        return (
            sum(cdef.syntactic_size() for cdef in self._classes.values())
            + sum(rdef.syntactic_size() for rdef in self._relations.values())
        )

    # ------------------------------------------------------------------
    # Functional updates (used by the reasoner to pose queries)
    # ------------------------------------------------------------------
    def with_class(self, cdef: ClassDef) -> "Schema":
        """A new schema with ``cdef`` added (or replacing a same-named one)."""
        classes = dict(self._classes)
        classes[cdef.name] = cdef
        return Schema(classes.values(), self._relations.values())

    def with_relation(self, rdef: RelationDef) -> "Schema":
        """A new schema with ``rdef`` added (or replacing a same-named one)."""
        relations = dict(self._relations)
        relations[rdef.name] = rdef
        return Schema(self._classes.values(), relations.values())

    def without_class(self, name: str) -> "Schema":
        """A new schema with the definition of ``name`` removed."""
        classes = {n: d for n, d in self._classes.items() if n != name}
        return Schema(classes.values(), self._relations.values())

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (self._classes == other._classes
                and self._relations == other._relations)

    def __repr__(self) -> str:
        return (f"Schema({len(self._classes)} classes, "
                f"{len(self._relations)} relations, "
                f"{len(self._class_symbols)} class symbols)")
