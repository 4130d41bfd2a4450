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
from typing import Optional, Sequence, Union

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

    The coefficients are integers: the schema's cardinality bounds and
    ``±1``.  ``origin`` records which ``Natt``/``Nrel`` entry produced it
    (useful in diagnostics and in the Theorem 4.3 size measurements).
    """

    coefficients: tuple[tuple[int, int], ...]
    origin: str

    def nonzeros(self) -> int:
        return len(self.coefficients)


class PsiSystem:
    """``Ψ_S``: indexed unknowns plus homogeneous ``≤ 0`` constraints.

    Every view the support computation reads is built once here: the
    unknowns and constraints as tuples, the compound-class indices, each
    unknown's endpoint indices, and the per-entry view of
    :func:`bound_entries`.
    """

    def __init__(self, expansion: Expansion):
        self.expansion = expansion
        unknowns: list[Unknown] = []
        self._index: dict[Unknown, int] = {}
        for members in expansion.compound_classes:
            self._register(unknowns, members)
        for compounds in expansion.compound_attributes.values():
            for compound in compounds:
                self._register(unknowns, compound)
        for compounds in expansion.compound_relations.values():
            for compound in compounds:
                self._register(unknowns, compound)
        self._unknowns: tuple[Unknown, ...] = tuple(unknowns)
        # Compound classes are registered first, so their indices form a
        # prefix of the unknowns.
        self._class_indices = range(len(expansion.compound_classes))
        self._endpoints = tuple(self._endpoint_indices(unknown)
                                for unknown in unknowns)
        self._entries, self._constraints = self._build_rows()

    # ------------------------------------------------------------------
    def _register(self, unknowns: list[Unknown], unknown: Unknown) -> None:
        if unknown in self._index:
            raise LinearSystemError(f"duplicate unknown {unknown!r}")
        self._index[unknown] = len(unknowns)
        unknowns.append(unknown)

    def index_of(self, unknown: Unknown) -> int:
        try:
            return self._index[unknown]
        except KeyError:
            raise LinearSystemError(f"unknown not in system: {unknown!r}") from None

    def lookup(self, unknown: Unknown) -> Optional[int]:
        """The index of ``unknown``, or None when the system lacks it."""
        return self._index.get(unknown)

    def _endpoint_indices(self, unknown: Unknown) -> tuple[int, ...]:
        if isinstance(unknown, CompoundAttribute):
            return (self.index_of(unknown.left), self.index_of(unknown.right))
        if isinstance(unknown, CompoundRelation):
            return tuple(self.index_of(members)
                         for _, members in unknown.assignment)
        return ()

    # ------------------------------------------------------------------
    def _build_rows(self):
        """The bound entries (in ``Natt``/``Nrel`` order) and the
        constraint rows (sorted by entry), from one summand lookup per
        entry.  Row order steers the simplex's tie-breaks, so it must not
        change."""
        expansion = self.expansion
        index_of = self.index_of
        entries = []
        attribute_rows = []
        for (members, ref), card in expansion.natt.items():
            if ref.inverse:
                summands = expansion.attributes_with_right(ref.name, members)
            else:
                summands = expansion.attributes_with_left(ref.name, members)
            class_index = index_of(members)
            indices = tuple(index_of(s) for s in summands)
            label = ", ".join(sorted(members))
            entries.append((class_index, indices, card,
                            f"{{{label}}} => {ref} : {card}"))
            attribute_rows.append(((sorted(members), ref.name, ref.inverse),
                                   class_index, indices, card,
                                   f"Natt {{{label}}} => {ref}"))
        relation_rows = []
        for (members, relation, role), card in expansion.nrel.items():
            summands = expansion.relations_with_role(relation, role, members)
            class_index = index_of(members)
            indices = tuple(index_of(s) for s in summands)
            label = ", ".join(sorted(members))
            entries.append((class_index, indices, card,
                            f"{{{label}}} => {relation}[{role}] : {card}"))
            relation_rows.append(((sorted(members), relation, role),
                                  class_index, indices, card,
                                  f"Nrel {{{label}}} => {relation}[{role}]"))
        constraints: list[Constraint] = []
        for rows in (attribute_rows, relation_rows):
            rows.sort(key=lambda row: row[0])
            for _key, class_index, indices, card, origin in rows:
                _add_bounds(constraints, class_index, indices, card.lower,
                            card.upper, origin)
        return tuple(entries), tuple(constraints)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def unknowns(self) -> tuple[Unknown, ...]:
        return self._unknowns

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return self._constraints

    def n_unknowns(self) -> int:
        return len(self._unknowns)

    def n_constraints(self) -> int:
        return len(self._constraints)

    def n_nonzeros(self) -> int:
        return sum(c.nonzeros() for c in self._constraints)

    def size(self) -> int:
        """The paper's ``|Ψ_S|``: unknowns plus total constraint entries."""
        return self.n_unknowns() + self.n_nonzeros()

    def class_unknown_indices(self) -> range:
        """Indices of the unknowns standing for compound classes."""
        return self._class_indices

    def endpoints_of(self, index: int) -> tuple[int, ...]:
        """Indices of the compound-class unknowns that must be positive for
        unknown ``index`` to be positive in an *acceptable* solution."""
        return self._endpoints[index]

    def components(self) -> list[list[int]]:
        """The connected components of the system: unknowns coupled by a
        constraint row or by an acceptability (endpoint) edge.  The system
        is block-diagonal across them, so each block's support can be
        decided alone.  Each component lists its compound classes first.

        Every row couples one compound class with summands that have it as
        an endpoint, so the endpoint edges alone connect each component:
        the union-find runs over the compound classes, joining the
        endpoints of each compound attribute and relation.
        """
        n_classes = len(self._class_indices)
        endpoints = self._endpoints
        parent = list(range(n_classes))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ends in endpoints[n_classes:]:
            root = find(ends[0])
            for endpoint in ends:
                other = find(endpoint)
                if other != root:
                    parent[other] = root
        roots = [find(index) for index in range(n_classes)]
        groups: dict[int, list[int]] = {}
        for index, root in enumerate(roots):
            groups.setdefault(root, []).append(index)
        for index in range(n_classes, len(endpoints)):
            groups[roots[endpoints[index][0]]].append(index)
        return list(groups.values())

    def describe(self) -> str:
        lines = [f"Psi_S: {self.n_unknowns()} unknowns, "
                 f"{self.n_constraints()} disequations, "
                 f"{self.n_nonzeros()} nonzero coefficients"]
        return "\n".join(lines)


def _add_bounds(constraints: list[Constraint], class_index: int,
                summand_indices: Sequence[int], lower: int, upper,
                origin: str) -> None:
    """Emit ``lower·x_C - Σ x_i ≤ 0`` and ``Σ x_i - upper·x_C ≤ 0``."""
    if lower > 0:
        coeffs: dict[int, int] = {class_index: lower}
        for i in summand_indices:
            coeffs[i] = coeffs.get(i, 0) - 1
        constraints.append(Constraint(
            tuple(sorted(coeffs.items())), f"{origin} lower {lower}"))
    if upper is not INFINITY:
        coeffs = {class_index: -upper}
        for i in summand_indices:
            coeffs[i] = coeffs.get(i, 0) + 1
        constraints.append(Constraint(
            tuple(sorted(coeffs.items())), f"{origin} upper {upper}"))


def build_system(expansion: Expansion) -> PsiSystem:
    """Derive ``Ψ_S`` from the expansion of a schema."""
    return PsiSystem(expansion)


def bound_entries(system: PsiSystem):
    """``(class_index, summand_indices, card, origin)`` per Natt/Nrel entry.

    The per-entry view of the system the combinatorial layers work from:
    the propagation rules of :mod:`repro.linear.support` and the §4.4
    closed form of :mod:`repro.linear.sparse` both reason entry-by-entry
    rather than row-by-row (an entry owns its lower *and* upper row).
    Built once with the system; ``summand_indices`` is a tuple.
    """
    return system._entries
