"""Interpretations: finite database states for a CAR schema.

An interpretation ``I = (Δ, ·^I)`` (Section 2.3) consists of a nonempty
finite universe ``Δ`` and an interpretation function mapping every class to a
subset of ``Δ``, every attribute to a set of pairs over ``Δ``, and every
relation to a set of **labeled tuples** over ``Δ``.

The objects in the universe can be any hashable Python values; examples and
the model synthesizer use small integers or descriptive strings.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import AbstractSet, Hashable, Iterable

from ..core.errors import SemanticsError
from ..core.formulas import Formula
from ..core.schema import AttrRef, Schema

__all__ = ["LabeledTuple", "Interpretation"]

Obj = Hashable


@dataclass(frozen=True, slots=True)
class LabeledTuple:
    """A labeled tuple ``⟨U1: o1, …, UK: oK⟩``: a function from roles to objects.

    Stored as a canonical sorted tuple of ``(role, object)`` pairs so that
    labeled tuples are hashable and compare structurally (relations are *sets*
    of labeled tuples, so duplicates collapse).
    """

    items: tuple[tuple[str, Obj], ...]

    def __init__(self, assignment: Mapping[str, Obj] | Iterable[tuple[str, Obj]]):
        if isinstance(assignment, Mapping):
            pairs = tuple(sorted(assignment.items()))
        else:
            pairs = tuple(sorted(assignment))
        roles = [role for role, _ in pairs]
        if len(roles) != len(set(roles)):
            raise SemanticsError(f"labeled tuple assigns a role twice: {pairs!r}")
        if not pairs:
            raise SemanticsError("labeled tuple must assign at least one role")
        object.__setattr__(self, "items", pairs)

    def __getitem__(self, role: str) -> Obj:
        """The value ``t[U]`` associated with the ``U``-component."""
        for name, obj in self.items:
            if name == role:
                return obj
        raise KeyError(role)

    def roles(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.items)

    def objects(self) -> tuple[Obj, ...]:
        return tuple(obj for _, obj in self.items)

    def as_dict(self) -> dict[str, Obj]:
        return dict(self.items)

    def __str__(self) -> str:
        inner = ", ".join(f"{role}: {obj!r}" for role, obj in self.items)
        return f"<{inner}>"


class Interpretation:
    """A finite database state.

    Parameters
    ----------
    universe:
        Nonempty finite iterable of hashable objects (``Δ``).
    classes:
        Mapping from class symbol to the set of its instances.
    attributes:
        Mapping from attribute symbol to a set of ``(source, target)`` pairs.
    relations:
        Mapping from relation symbol to a set of :class:`LabeledTuple`.

    All extensions are checked to stay inside the universe.  Symbols not
    mentioned get the empty extension, matching the paper's observation that
    the everything-empty interpretation satisfies every schema.
    """

    def __init__(self, universe: Iterable[Obj],
                 classes: Mapping[str, AbstractSet[Obj]] | None = None,
                 attributes: Mapping[str, AbstractSet[tuple[Obj, Obj]]] | None = None,
                 relations: Mapping[str, AbstractSet[LabeledTuple]] | None = None):
        self._universe = frozenset(universe)
        if not self._universe:
            raise SemanticsError("the universe of an interpretation must be nonempty")
        self._classes = {name: frozenset(ext) for name, ext in (classes or {}).items()}
        self._attributes = {
            name: frozenset(ext) for name, ext in (attributes or {}).items()
        }
        self._relations = {
            name: frozenset(ext) for name, ext in (relations or {}).items()
        }
        self._check_containment()

    @classmethod
    def _trusted(cls, universe: frozenset[Obj],
                 classes: dict[str, frozenset[Obj]],
                 attributes: dict[str, frozenset[tuple[Obj, Obj]]],
                 relations: dict[str, frozenset[LabeledTuple]]
                 ) -> "Interpretation":
        """An interpretation over frozen extensions that the caller
        guarantees to hold pairs and labeled tuples inside a nonempty
        ``universe``, built without :meth:`_check_containment`.
        :meth:`Database.snapshot <repro.semantics.database.Database.snapshot>`
        is the caller: its mutators refuse objects outside the database,
        and ``delete`` removes every link and tuple of the object."""
        interpretation = cls.__new__(cls)
        interpretation._universe = universe
        interpretation._classes = classes
        interpretation._attributes = attributes
        interpretation._relations = relations
        return interpretation

    def _check_containment(self) -> None:
        for name, ext in self._classes.items():
            stray = ext - self._universe
            if stray:
                raise SemanticsError(
                    f"class {name} contains objects outside the universe: {sorted(map(repr, stray))}"
                )
        for name, ext in self._attributes.items():
            for pair in ext:
                if not (isinstance(pair, tuple) and len(pair) == 2):
                    raise SemanticsError(f"attribute {name} extension must hold pairs, got {pair!r}")
                if pair[0] not in self._universe or pair[1] not in self._universe:
                    raise SemanticsError(
                        f"attribute {name} pair {pair!r} leaves the universe"
                    )
        for name, ext in self._relations.items():
            for tup in ext:
                if not isinstance(tup, LabeledTuple):
                    raise SemanticsError(
                        f"relation {name} extension must hold LabeledTuple, got {tup!r}"
                    )
                for obj in tup.objects():
                    if obj not in self._universe:
                        raise SemanticsError(
                            f"relation {name} tuple {tup} leaves the universe"
                        )

    # ------------------------------------------------------------------
    # Extensions
    # ------------------------------------------------------------------
    @property
    def universe(self) -> frozenset[Obj]:
        return self._universe

    def class_ext(self, name: str) -> frozenset[Obj]:
        """``C^I`` — empty for symbols the interpretation does not mention."""
        return self._classes.get(name, frozenset())

    def attribute_ext(self, name: str) -> frozenset[tuple[Obj, Obj]]:
        """``A^I`` as a set of ``(source, target)`` pairs."""
        return self._attributes.get(name, frozenset())

    def attr_ref_ext(self, ref: AttrRef) -> frozenset[tuple[Obj, Obj]]:
        """``att^I`` for a direct or inverse attribute reference.

        The inverse extension is ``{(a, b) | (b, a) ∈ A^I}`` (Section 2.3).
        """
        ext = self.attribute_ext(ref.name)
        if ref.inverse:
            return frozenset((b, a) for a, b in ext)
        return ext

    def relation_ext(self, name: str) -> frozenset[LabeledTuple]:
        """``R^I`` as a set of labeled tuples."""
        return self._relations.get(name, frozenset())

    def mentioned_classes(self) -> frozenset[str]:
        return frozenset(self._classes)

    def mentioned_attributes(self) -> frozenset[str]:
        return frozenset(self._attributes)

    def mentioned_relations(self) -> frozenset[str]:
        return frozenset(self._relations)

    # ------------------------------------------------------------------
    # Formula evaluation
    # ------------------------------------------------------------------
    def classes_of(self, obj: Obj) -> frozenset[str]:
        """The set of class symbols whose extension contains ``obj``."""
        return frozenset(name for name, ext in self._classes.items() if obj in ext)

    def satisfies_formula(self, obj: Obj, formula: Formula) -> bool:
        """``obj ∈ F^I`` for a class-formula ``F`` (inductive semantics)."""
        return formula.satisfied_by(self.classes_of(obj))

    def formula_ext(self, formula: Formula) -> frozenset[Obj]:
        """``F^I`` — the extension of a class-formula."""
        return frozenset(
            obj for obj in self._universe if self.satisfies_formula(obj, formula)
        )

    # ------------------------------------------------------------------
    # Link counting (used by the model checker)
    # ------------------------------------------------------------------
    def attr_link_count(self, ref: AttrRef, obj: Obj) -> int:
        """Number of pairs ``(obj, _)`` in ``att^I`` (Section 2.3's count)."""
        if ref.inverse:
            return sum(1 for _, b in self.attribute_ext(ref.name) if b == obj)
        return sum(1 for a, _ in self.attribute_ext(ref.name) if a == obj)

    def attr_fillers(self, ref: AttrRef, obj: Obj) -> frozenset[Obj]:
        """Objects reachable from ``obj`` through ``ref``."""
        if ref.inverse:
            return frozenset(a for a, b in self.attribute_ext(ref.name) if b == obj)
        return frozenset(b for a, b in self.attribute_ext(ref.name) if a == obj)

    def participation_count(self, relation: str, role: str, obj: Obj) -> int:
        """Number of tuples ``r ∈ R^I`` with ``r[role] = obj``."""
        count = 0
        for tup in self.relation_ext(relation):
            try:
                value = tup[role]
            except KeyError:
                continue
            if value == obj:
                count += 1
        return count

    # ------------------------------------------------------------------
    @classmethod
    def empty_over(cls, universe: Iterable[Obj]) -> "Interpretation":
        """The interpretation assigning every symbol the empty extension."""
        return cls(universe)

    def summary(self) -> str:
        """A short human-readable account of the database state."""
        lines = [f"universe: {len(self._universe)} objects"]
        for name in sorted(self._classes):
            lines.append(f"  class {name}: {len(self._classes[name])} instances")
        for name in sorted(self._attributes):
            lines.append(f"  attribute {name}: {len(self._attributes[name])} pairs")
        for name in sorted(self._relations):
            lines.append(f"  relation {name}: {len(self._relations[name])} tuples")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Interpretation(|Δ|={len(self._universe)}, "
                f"{len(self._classes)} classes, {len(self._attributes)} attributes, "
                f"{len(self._relations)} relations)")


def restrict_to_schema(interp: Interpretation, schema: Schema) -> Interpretation:
    """Drop extensions of symbols that do not occur in ``schema``.

    Handy when reusing a synthesized model after schema edits.
    """
    return Interpretation(
        interp.universe,
        {n: interp.class_ext(n) for n in interp.mentioned_classes()
         if n in schema.class_symbols},
        {n: interp.attribute_ext(n) for n in interp.mentioned_attributes()
         if n in schema.attribute_symbols},
        {n: interp.relation_ext(n) for n in interp.mentioned_relations()
         if n in schema.relation_symbols},
    )


__all__ += ["restrict_to_schema"]
