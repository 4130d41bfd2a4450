"""The system ``Ψ_S`` of linear disequations derived from an expansion.

Section 3.2: one unknown ``Var(X̄)`` per consistent compound class, compound
attribute, and compound relation, with disequations

* ``Var(X̄) ≥ 0`` for every unknown (implicit: the solver works over the
  nonnegative orthant);
* ``u · Var(C̄) ≤ S(att, C̄) ≤ v · Var(C̄)`` for every ``Natt`` entry
  ``C̄ ⇒ att : (u, v)``, where ``S`` sums the compound-attribute unknowns
  with the matching endpoint;
* ``x · Var(C̄) ≤ Σ Var(R̄) ≤ y · Var(C̄)`` over the compound relations with
  ``R̄[U] = C̄`` for every ``Nrel`` entry ``C̄ ⇒ R[U] : (x, y)``.

The system is homogeneous, so its solution set is a convex cone closed under
addition and positive scaling — the structural fact the support computation
in :mod:`repro.linear.support` exploits, and the reason rational solutions
scale to integer ones (Theorem 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from ..core.cardinality import INFINITY
from ..core.errors import LinearSystemError
from ..expansion.compound import CompoundAttribute, CompoundRelation
from ..expansion.expansion import Expansion

__all__ = ["Unknown", "Constraint", "PsiSystem", "build_system",
           "bound_entries"]

#: An unknown is identified by the compound object it counts.
Unknown = Union[frozenset, CompoundAttribute, CompoundRelation]


@dataclass(frozen=True)
class Constraint:
    """A sparse disequation ``Σ coeff_i · x_i ≤ 0`` over unknown indices.

    ``origin`` records which ``Natt``/``Nrel`` entry produced it (useful in
    diagnostics and in the Theorem 4.3 size measurements).
    """

    coefficients: tuple[tuple[int, Fraction], ...]
    origin: str

    def nonzeros(self) -> int:
        return len(self.coefficients)


class PsiSystem:
    """``Ψ_S``: indexed unknowns plus homogeneous ``≤ 0`` constraints."""

    def __init__(self, expansion: Expansion):
        self.expansion = expansion
        self._unknowns: list[Unknown] = []
        self._index: dict[Unknown, int] = {}
        self._constraints: list[Constraint] = []

        for members in expansion.compound_classes:
            self._register(members)
        for compounds in expansion.compound_attributes.values():
            for compound in compounds:
                self._register(compound)
        for compounds in expansion.compound_relations.values():
            for compound in compounds:
                self._register(compound)

        self._build_attribute_constraints()
        self._build_relation_constraints()

    # ------------------------------------------------------------------
    def _register(self, unknown: Unknown) -> int:
        if unknown in self._index:
            raise LinearSystemError(f"duplicate unknown {unknown!r}")
        index = len(self._unknowns)
        self._unknowns.append(unknown)
        self._index[unknown] = index
        return index

    def index_of(self, unknown: Unknown) -> int:
        try:
            return self._index[unknown]
        except KeyError:
            raise LinearSystemError(f"unknown not in system: {unknown!r}") from None

    # ------------------------------------------------------------------
    def _add_bounds(self, class_index: int, summand_indices: Sequence[int],
                    lower: int, upper, origin: str) -> None:
        """Emit ``lower·x_C - Σ x_i ≤ 0`` and ``Σ x_i - upper·x_C ≤ 0``."""
        if lower > 0:
            coeffs: dict[int, Fraction] = {class_index: Fraction(lower)}
            for i in summand_indices:
                coeffs[i] = coeffs.get(i, Fraction(0)) - 1
            self._constraints.append(Constraint(
                tuple(sorted(coeffs.items())), f"{origin} lower {lower}"))
        if upper is not INFINITY:
            coeffs = {class_index: Fraction(-upper)}
            for i in summand_indices:
                coeffs[i] = coeffs.get(i, Fraction(0)) + 1
            self._constraints.append(Constraint(
                tuple(sorted(coeffs.items())), f"{origin} upper {upper}"))

    def _build_attribute_constraints(self) -> None:
        expansion = self.expansion
        for (members, ref), card in sorted(
                expansion.natt.items(),
                key=lambda item: (sorted(item[0][0]), item[0][1].name, item[0][1].inverse)):
            class_index = self.index_of(members)
            if ref.inverse:
                summands = expansion.attributes_with_right(ref.name, members)
            else:
                summands = expansion.attributes_with_left(ref.name, members)
            indices = [self.index_of(compound) for compound in summands]
            origin = f"Natt {{{', '.join(sorted(members))}}} => {ref}"
            self._add_bounds(class_index, indices, card.lower, card.upper, origin)

    def _build_relation_constraints(self) -> None:
        expansion = self.expansion
        for (members, relation, role), card in sorted(
                expansion.nrel.items(),
                key=lambda item: (sorted(item[0][0]), item[0][1], item[0][2])):
            class_index = self.index_of(members)
            summands = expansion.relations_with_role(relation, role, members)
            indices = [self.index_of(compound) for compound in summands]
            origin = f"Nrel {{{', '.join(sorted(members))}}} => {relation}[{role}]"
            self._add_bounds(class_index, indices, card.lower, card.upper, origin)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def unknowns(self) -> tuple[Unknown, ...]:
        return tuple(self._unknowns)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    def n_unknowns(self) -> int:
        return len(self._unknowns)

    def n_constraints(self) -> int:
        return len(self._constraints)

    def n_nonzeros(self) -> int:
        return sum(c.nonzeros() for c in self._constraints)

    def size(self) -> int:
        """The paper's ``|Ψ_S|``: unknowns plus total constraint entries."""
        return self.n_unknowns() + self.n_nonzeros()

    def class_unknown_indices(self) -> list[int]:
        """Indices of the unknowns standing for compound classes."""
        return [i for i, unknown in enumerate(self._unknowns)
                if isinstance(unknown, frozenset)]

    def endpoints_of(self, index: int) -> list[int]:
        """Indices of the compound-class unknowns that must be positive for
        unknown ``index`` to be positive in an *acceptable* solution."""
        unknown = self._unknowns[index]
        if isinstance(unknown, CompoundAttribute):
            return [self.index_of(unknown.left), self.index_of(unknown.right)]
        if isinstance(unknown, CompoundRelation):
            return [self.index_of(members) for _, members in unknown.assignment]
        return []

    def describe(self) -> str:
        lines = [f"Psi_S: {self.n_unknowns()} unknowns, "
                 f"{self.n_constraints()} disequations, "
                 f"{self.n_nonzeros()} nonzero coefficients"]
        return "\n".join(lines)


def build_system(expansion: Expansion) -> PsiSystem:
    """Derive ``Ψ_S`` from the expansion of a schema."""
    return PsiSystem(expansion)


def bound_entries(system: PsiSystem):
    """``(class_index, summand_indices, card, origin)`` per Natt/Nrel entry.

    The per-entry view of the system the combinatorial layers work from:
    the propagation rules of :mod:`repro.linear.support` and the §4.4
    closed form of :mod:`repro.linear.sparse` both reason entry-by-entry
    rather than row-by-row (an entry owns its lower *and* upper row).
    """
    expansion = system.expansion
    entries = []
    for (members, ref), card in expansion.natt.items():
        class_index = system.index_of(members)
        if ref.inverse:
            summands = expansion.attributes_with_right(ref.name, members)
        else:
            summands = expansion.attributes_with_left(ref.name, members)
        origin = f"{{{', '.join(sorted(members))}}} => {ref} : {card}"
        entries.append((class_index,
                        tuple(system.index_of(s) for s in summands), card,
                        origin))
    for (members, relation, role), card in expansion.nrel.items():
        class_index = system.index_of(members)
        summands = expansion.relations_with_role(relation, role, members)
        origin = f"{{{', '.join(sorted(members))}}} => {relation}[{role}] : {card}"
        entries.append((class_index,
                        tuple(system.index_of(s) for s in summands), card,
                        origin))
    return entries
