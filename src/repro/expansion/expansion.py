"""Construction of the expansion ``S̄`` of a CAR schema (Definition 3.1).

The expansion consists of

* all consistent compound classes,
* all consistent compound attributes ``⟨C̄1, C̄2⟩_A``,
* all consistent compound relations ``⟨U1: C̄1, …⟩_R``,
* the cardinality maps ``Natt`` and ``Nrel``.

Compound attributes and relations that no *binding* ``Natt``/``Nrel`` entry
touches are omitted by default (binding: positive lower bound or finite
upper bound).  Such compound objects occur in no disequation of ``Ψ_S``, so
they can always be interpreted freely; set ``include_unconstrained=True`` to
build Definition 3.1 verbatim, which the unit tests do on small schemas.

Two throughput devices shape this module:

* **Binding-endpoint pruning** — instead of filtering the full Cartesian
  candidate space ``classes × classes`` (resp. ``classes^arity``), the
  builder precomputes the compound classes carrying a *binding* ``Natt`` /
  ``Nrel`` entry per attribute reference / relation role and enumerates only
  ``binding_left × classes ∪ classes × binding_right`` (resp. the per-role
  first-binding-position decomposition) — exactly the candidates the default
  filter would keep.
* **Endpoint indexes** — :meth:`Expansion.attributes_with_left`,
  :meth:`Expansion.attributes_with_right`, and
  :meth:`Expansion.relations_with_role` answer from prebuilt
  ``(symbol, endpoint) → tuple`` dictionaries instead of scanning the
  compound-object lists, which keeps the ``Ψ_S`` build linear in the number
  of summands instead of quadratic.  ``dataclasses.replace(expansion,
  indexed=False)`` restores the linear scans for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

from ..core.budget import current_budget
from ..core.cardinality import Card, INFINITY
from ..core.errors import ReasoningError
from ..core.schema import AttrRef, Schema
from ..obs.tracer import current_tracer
from .compound import (
    AttributeTyping,
    CompoundAttribute,
    CompoundRelation,
    RelationTyping,
    merged_attr_card,
    merged_participation_card,
)
from .enumerate import compound_classes as enumerate_compound_classes

__all__ = ["Expansion", "build_expansion", "build_expansion_delta",
           "is_binding"]


def is_binding(card: Card) -> bool:
    """True when a merged cardinality interval yields a disequation at all:
    ``(0, ∞)`` entries constrain nothing and are skipped when selecting the
    compound attributes/relations to materialize."""
    return card.lower > 0 or card.upper is not INFINITY


@dataclass(frozen=True)
class Expansion:
    """The expansion ``S̄``: compound objects plus ``Natt`` / ``Nrel``.

    ``indexed`` controls the endpoint-lookup implementation: prebuilt
    dictionaries (default) versus the legacy linear scans, kept for the
    ablation benchmarks and the index-equivalence tests.
    """

    schema: Schema
    compound_classes: tuple[frozenset, ...]
    compound_attributes: dict[str, tuple[CompoundAttribute, ...]]
    compound_relations: dict[str, tuple[CompoundRelation, ...]]
    natt: dict[tuple[frozenset, AttrRef], Card]
    nrel: dict[tuple[frozenset, str, str], Card]
    strategy: str = "strategic"
    indexed: bool = True
    #: Lazily built endpoint indexes (not part of equality/representation).
    _indexes: Optional[dict] = field(default=None, repr=False, compare=False)

    def size(self) -> int:
        """Total number of compound objects (the paper's expansion size)."""
        return (len(self.compound_classes)
                + sum(len(v) for v in self.compound_attributes.values())
                + sum(len(v) for v in self.compound_relations.values()))

    def compound_classes_containing(self, class_name: str) -> list[frozenset]:
        """The compound classes whose member set includes ``class_name``."""
        return [members for members in self.compound_classes if class_name in members]

    # ------------------------------------------------------------------
    # Endpoint lookups (the summand sets of the Ψ_S disequations)
    # ------------------------------------------------------------------
    def _endpoint_indexes(self) -> dict:
        """Build (once) the endpoint → compound-object indexes.

        Three dictionaries: ``left[(attr, C̄)]`` and ``right[(attr, C̄)]``
        over compound attributes, ``role[(relation, role, C̄)]`` over
        compound relations.  One linear pass over the expansion replaces the
        per-entry linear scans that made the Ψ_S build quadratic.
        """
        indexes = self._indexes
        if indexes is None:
            left: dict[tuple, list] = {}
            right: dict[tuple, list] = {}
            by_role: dict[tuple, list] = {}
            for attr, compounds in self.compound_attributes.items():
                for ca in compounds:
                    left.setdefault((attr, ca.left), []).append(ca)
                    right.setdefault((attr, ca.right), []).append(ca)
            for relation, compounds in self.compound_relations.items():
                for cr in compounds:
                    for role, members in cr.assignment:
                        by_role.setdefault((relation, role, members),
                                           []).append(cr)
            indexes = {
                "left": {key: tuple(v) for key, v in left.items()},
                "right": {key: tuple(v) for key, v in right.items()},
                "role": {key: tuple(v) for key, v in by_role.items()},
            }
            object.__setattr__(self, "_indexes", indexes)
        return indexes

    def attributes_with_left(self, attr: str,
                             members: frozenset) -> tuple[CompoundAttribute, ...]:
        """Compound attributes of ``attr`` whose source endpoint is ``members``
        (the summands of ``S(A, C̄)``)."""
        if not self.indexed:
            return tuple(ca for ca in self.compound_attributes.get(attr, ())
                         if ca.left == members)
        return self._endpoint_indexes()["left"].get((attr, members), ())

    def attributes_with_right(self, attr: str,
                              members: frozenset) -> tuple[CompoundAttribute, ...]:
        """Compound attributes of ``attr`` whose target endpoint is ``members``
        (the summands of ``S((inv A), C̄)``)."""
        if not self.indexed:
            return tuple(ca for ca in self.compound_attributes.get(attr, ())
                         if ca.right == members)
        return self._endpoint_indexes()["right"].get((attr, members), ())

    def relations_with_role(self, relation: str, role: str,
                            members: frozenset) -> tuple[CompoundRelation, ...]:
        """Compound relations of ``relation`` assigning ``members`` to ``role``."""
        if not self.indexed:
            return tuple(cr for cr in self.compound_relations.get(relation, ())
                         if cr[role] == members)
        return self._endpoint_indexes()["role"].get((relation, role, members), ())

    def summary(self) -> str:
        lines = [
            f"expansion ({self.strategy}): {len(self.compound_classes)} compound classes",
        ]
        for attr in sorted(self.compound_attributes):
            lines.append(
                f"  attribute {attr}: {len(self.compound_attributes[attr])} compound attributes"
            )
        for rel in sorted(self.compound_relations):
            lines.append(
                f"  relation {rel}: {len(self.compound_relations[rel])} compound relations"
            )
        lines.append(f"  |Natt| = {len(self.natt)}, |Nrel| = {len(self.nrel)}")
        return "\n".join(lines)


#: Placeholder interval for absent entries in the binding tests above.
_FREE = Card(0, INFINITY)


class _SizeBudget:
    """Cumulative compound-object counter enforcing ``size_limit``.

    One bound over the *total* number of compound objects (classes +
    attributes + relations), charged as each object materializes — the
    guard the ``size_limit`` parameter documents, replacing the historical
    inconsistent mix of a total bound on classes and per-attribute /
    per-relation bounds on the rest.
    """

    __slots__ = ("limit", "count")

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.count = 0

    def charge(self, amount: int, what: str) -> None:
        self.count += amount
        if self.limit is not None and self.count > self.limit:
            raise ReasoningError(
                f"expansion exceeds size limit while building {what}: "
                f"{self.count} compound objects > {self.limit}")


def build_expansion(schema: Schema, strategy: str = "auto", *,
                    include_unconstrained: bool = False,
                    size_limit: Optional[int] = None,
                    tables=None,
                    precomputed_classes: Optional[Sequence[frozenset]] = None
                    ) -> Expansion:
    """Build the expansion of ``schema``.

    Parameters
    ----------
    strategy:
        Compound-class enumeration strategy (see
        :func:`repro.expansion.enumerate.compound_classes`).
    include_unconstrained:
        Also include compound attributes/relations that no ``Natt``/``Nrel``
        entry mentions (Definition 3.1 verbatim).
    size_limit:
        Abort with :class:`ReasoningError` when the cumulative number of
        compound objects (classes + attributes + relations) would exceed
        this bound — a guard for adversarial schemas.
    tables:
        Optional prebuilt :class:`~repro.expansion.tables.SchemaTables`,
        reused by the strategic enumeration instead of running the
        preselection pass again.
    precomputed_classes:
        Optional compound classes to use verbatim (skipping enumeration) —
        the incremental augmented-query path of the reasoner supplies the
        merged-cluster result here.

    The ambient tracer receives the enumeration counters
    (``expansion.compound_classes``, the DPLL search counters) and the
    builder counters (``expansion.candidates_examined`` /
    ``expansion.candidates_pruned`` against the full Cartesian space,
    ``expansion.memo_hits`` / ``expansion.memo_misses`` of the typing
    memos).

    The candidate loops (and the per-class ``Natt``/``Nrel`` merges) tick
    the ambient :class:`~repro.core.budget.Budget`, so a deadline or step
    bound stops an exploding expansion with
    :class:`~repro.core.errors.BudgetExceeded` — the cooperative analogue
    of the ``size_limit`` memory guard.
    """
    tick = current_budget().tick
    budget = _SizeBudget(size_limit)
    if precomputed_classes is not None:
        classes = tuple(precomputed_classes)
        current_tracer().add("expansion.precomputed_classes", len(classes))
    else:
        classes = tuple(enumerate_compound_classes(schema, strategy,
                                                   tables=tables))
    budget.charge(len(classes), "compound classes")

    natt: dict[tuple[frozenset, AttrRef], Card] = {}
    for members in classes:
        tick()
        for ref in schema.attribute_refs():
            merged = merged_attr_card(schema, members, ref)
            if merged is not None:
                natt[(members, ref)] = merged

    nrel: dict[tuple[frozenset, str, str], Card] = {}
    participation_keys = {
        (spec.relation, spec.role)
        for cdef in schema.class_definitions for spec in cdef.participates
    }
    for members in classes:
        tick()
        for relation, role in participation_keys:
            merged = merged_participation_card(schema, members, relation, role)
            if merged is not None:
                nrel[(members, relation, role)] = merged

    compound_attributes = _build_compound_attributes(
        schema, classes, natt, include_unconstrained, budget)
    compound_relations = _build_compound_relations(
        schema, classes, nrel, include_unconstrained, budget)

    return Expansion(
        schema=schema,
        compound_classes=classes,
        compound_attributes=compound_attributes,
        compound_relations=compound_relations,
        natt=natt,
        nrel=nrel,
        strategy=strategy,
    )


def build_expansion_delta(schema: Schema, classes: Sequence[frozenset],
                          reused: frozenset, old: Expansion, *,
                          strategy: str = "strategic",
                          touched_relations: frozenset = frozenset(),
                          size_limit: Optional[int] = None) -> Expansion:
    """Build the expansion of ``schema`` reusing rows of a previous one.

    ``classes`` is the full (merged) compound-class list; members of
    ``reused`` come verbatim from ``old`` — clusters the delta planner
    (:func:`repro.engine.delta.seed_delta`) proved untouched.  For those,
    the ``Natt``/``Nrel`` entries and the compound attributes/relations
    with *every* endpoint reused are copied from ``old`` instead of being
    re-derived: both are functions of the member definitions alone, which
    the planner guarantees unchanged.  Only candidates with at least one
    fresh endpoint are probed, via a fresh-restricted refinement of the
    binding-endpoint decomposition, so each relevant new candidate is
    generated exactly once.  Relations in ``touched_relations`` (their
    definition changed) re-enumerate from scratch — compound-relation
    consistency reads the relation definition, so their old rows are not
    trustworthy even between reused endpoints.

    The ``size_limit`` accounting matches :func:`build_expansion`: reused
    objects are charged too, so the guard trips on the same totals a cold
    build would.
    """
    tick = current_budget().tick
    budget = _SizeBudget(size_limit)
    classes = tuple(classes)
    budget.charge(len(classes), "compound classes")
    tracer = current_tracer()
    tracer.add("expansion.delta_reused_classes", len(reused))
    tracer.add("expansion.delta_fresh_classes", len(classes) - len(reused))

    # Natt/Nrel rows: copy for reused members, merge for fresh ones.
    old_natt_by_members: dict[frozenset, list] = {}
    for (members, ref), card in old.natt.items():
        old_natt_by_members.setdefault(members, []).append((ref, card))
    natt: dict[tuple[frozenset, AttrRef], Card] = {}
    refs = schema.attribute_refs()
    for members in classes:
        tick()
        if members in reused:
            for ref, card in old_natt_by_members.get(members, ()):
                natt[(members, ref)] = card
            continue
        for ref in refs:
            merged = merged_attr_card(schema, members, ref)
            if merged is not None:
                natt[(members, ref)] = merged

    old_nrel_by_members: dict[frozenset, list] = {}
    for (members, relation, role), card in old.nrel.items():
        old_nrel_by_members.setdefault(members, []).append(
            (relation, role, card))
    nrel: dict[tuple[frozenset, str, str], Card] = {}
    participation_keys = {
        (spec.relation, spec.role)
        for cdef in schema.class_definitions for spec in cdef.participates
    }
    for members in classes:
        tick()
        if members in reused:
            for relation, role, card in old_nrel_by_members.get(members, ()):
                nrel[(members, relation, role)] = card
            continue
        for relation, role in participation_keys:
            merged = merged_participation_card(schema, members, relation, role)
            if merged is not None:
                nrel[(members, relation, role)] = merged

    compound_attributes = _delta_compound_attributes(
        schema, classes, reused, old, natt, budget)
    compound_relations = _delta_compound_relations(
        schema, classes, reused, old, nrel, touched_relations, budget)

    return Expansion(
        schema=schema,
        compound_classes=classes,
        compound_attributes=compound_attributes,
        compound_relations=compound_relations,
        natt=natt,
        nrel=nrel,
        strategy=strategy,
    )


def _delta_compound_attributes(schema: Schema, classes: Sequence[frozenset],
                               reused: frozenset, old: Expansion, natt,
                               budget: _SizeBudget
                               ) -> dict[str, tuple[CompoundAttribute, ...]]:
    """Per attribute: copy old compound attributes between reused
    endpoints, probe only the candidates with a fresh endpoint.

    The fresh-restricted decomposition partitions the relevant candidates
    ``BL × ALL ∪ (ALL∖BL) × BR`` that have at least one fresh endpoint:
    ``BL∩F × ALL``, ``BL∩R × F``, ``(ALL∖BL)∩F × BR``, and
    ``(ALL∖BL)∩R × BR∩F`` (R = reused, F = fresh) — every such pair is
    generated exactly once.
    """
    result: dict[str, tuple[CompoundAttribute, ...]] = {}
    tick = current_budget().tick
    copied = 0
    probed_total = 0
    for attr in sorted(schema.attribute_symbols):
        direct = AttrRef(attr)
        inverse = AttrRef(attr, inverse=True)
        typing = AttributeTyping(schema, attr)
        binding_left = [members for members in classes
                        if is_binding(natt.get((members, direct), _FREE))]
        binding_right = [members for members in classes
                         if is_binding(natt.get((members, inverse), _FREE))]
        left_set = set(binding_left)
        rest = [members for members in classes if members not in left_set]
        bl_fresh = [m for m in binding_left if m not in reused]
        bl_reused = [m for m in binding_left if m in reused]
        fresh = [m for m in classes if m not in reused]
        rest_fresh = [m for m in rest if m not in reused]
        rest_reused = [m for m in rest if m in reused]
        br_fresh = [m for m in binding_right if m not in reused]
        candidates = _chain_products(
            (bl_fresh, classes), (bl_reused, fresh),
            (rest_fresh, binding_right), (rest_reused, br_fresh))

        found = [ca for ca in old.compound_attributes.get(attr, ())
                 if ca.left in reused and ca.right in reused]
        budget.charge(len(found), f"attribute {attr}")
        copied += len(found)
        for left, right in candidates:
            tick()
            probed_total += 1
            if typing.consistent(left, right):
                found.append(CompoundAttribute(attr, left, right))
                budget.charge(1, f"attribute {attr}")
        result[attr] = tuple(found)
    if schema.attribute_symbols:
        tracer = current_tracer()
        tracer.add("expansion.delta_attributes_copied", copied)
        tracer.add("expansion.candidates_examined", probed_total)
    return result


def _delta_compound_relations(schema: Schema, classes: Sequence[frozenset],
                              reused: frozenset, old: Expansion, nrel,
                              touched_relations: frozenset,
                              budget: _SizeBudget
                              ) -> dict[str, tuple[CompoundRelation, ...]]:
    """Per relation: untouched relation definitions copy their compound
    relations between all-reused assignments and probe only tuples with a
    fresh member (each binding-position pool refined by the first fresh
    position); touched relations re-enumerate from scratch."""
    result: dict[str, tuple[CompoundRelation, ...]] = {}
    tick = current_budget().tick
    copied = 0
    probed_total = 0
    for rdef in schema.relation_definitions:
        typing = RelationTyping(schema, rdef.name)
        roles = rdef.roles
        binding = {
            role: [members for members in classes
                   if is_binding(nrel.get((members, rdef.name, role), _FREE))]
            for role in roles
        }
        nonbinding = {
            role: [members for members in classes
                   if not is_binding(nrel.get((members, rdef.name, role),
                                              _FREE))]
            for role in roles
        }
        base_pools = []
        for position, role in enumerate(roles):
            pools = ([nonbinding[r] for r in roles[:position]]
                     + [binding[role]]
                     + [list(classes) for _ in roles[position + 1:]])
            base_pools.append(pools)

        retouch = rdef.name in touched_relations
        if retouch:
            candidate_pools = [tuple(pools) for pools in base_pools]
            found: list[CompoundRelation] = []
        else:
            # Refine each binding-position pool tuple by the first fresh
            # position, so only assignments with >=1 fresh member emerge.
            candidate_pools = []
            for pools in base_pools:
                for position in range(len(pools)):
                    refined = (
                        [[m for m in pool if m in reused]
                         for pool in pools[:position]]
                        + [[m for m in pools[position] if m not in reused]]
                        + [list(pool) for pool in pools[position + 1:]])
                    candidate_pools.append(tuple(refined))
            found = [cr for cr in old.compound_relations.get(rdef.name, ())
                     if all(members in reused
                            for _, members in cr.assignment)]
            budget.charge(len(found), f"relation {rdef.name}")
            copied += len(found)

        for pools in candidate_pools:
            if any(not pool for pool in pools):
                continue
            for combo in product(*pools):
                tick()
                probed_total += 1
                assignment = dict(zip(roles, combo))
                if typing.consistent(assignment):
                    found.append(CompoundRelation(rdef.name, assignment))
                    budget.charge(1, f"relation {rdef.name}")
        result[rdef.name] = tuple(found)
    if schema.relation_definitions:
        tracer = current_tracer()
        tracer.add("expansion.delta_relations_copied", copied)
        tracer.add("expansion.candidates_examined", probed_total)
    return result


def _build_compound_attributes(schema: Schema, classes: Sequence[frozenset],
                               natt, include_unconstrained: bool,
                               budget: _SizeBudget
                               ) -> dict[str, tuple[CompoundAttribute, ...]]:
    result: dict[str, tuple[CompoundAttribute, ...]] = {}
    tick = current_budget().tick
    examined = 0
    cartesian = 0
    memo_hits = 0
    memo_misses = 0
    for attr in sorted(schema.attribute_symbols):
        direct = AttrRef(attr)
        inverse = AttrRef(attr, inverse=True)
        typing = AttributeTyping(schema, attr)
        if include_unconstrained:
            candidates = product(classes, classes)
        else:
            # Only pairs with a binding endpoint yield a disequation:
            # binding_left × classes ∪ (classes ∖ binding_left) × binding_right
            # partitions exactly the relevant candidates, skipping the rest
            # of the Cartesian product without a filter pass over it.
            binding_left = [members for members in classes
                            if is_binding(natt.get((members, direct), _FREE))]
            binding_right = [members for members in classes
                             if is_binding(natt.get((members, inverse), _FREE))]
            left_set = set(binding_left)
            rest = [members for members in classes if members not in left_set]
            candidates = _chain_products(
                (binding_left, classes), (rest, binding_right))
        found: list[CompoundAttribute] = []
        probed = 0
        for left, right in candidates:
            tick()
            probed += 1
            if typing.consistent(left, right):
                found.append(CompoundAttribute(attr, left, right))
                budget.charge(1, f"attribute {attr}")
        result[attr] = tuple(found)
        examined += probed
        cartesian += len(classes) ** 2
        memo_hits += typing.memo_hits
        memo_misses += typing.memo_misses
    if schema.attribute_symbols:
        tracer = current_tracer()
        tracer.add("expansion.candidates_examined", examined)
        tracer.add("expansion.candidates_pruned", cartesian - examined)
        tracer.add("expansion.memo_hits", memo_hits)
        tracer.add("expansion.memo_misses", memo_misses)
    return result


def _chain_products(*pools: tuple[Sequence, Sequence]):
    for lefts, rights in pools:
        if lefts and rights:
            yield from product(lefts, rights)


def _build_compound_relations(schema: Schema, classes: Sequence[frozenset],
                              nrel, include_unconstrained: bool,
                              budget: _SizeBudget
                              ) -> dict[str, tuple[CompoundRelation, ...]]:
    result: dict[str, tuple[CompoundRelation, ...]] = {}
    tick = current_budget().tick
    examined = 0
    cartesian = 0
    memo_hits = 0
    memo_misses = 0
    for rdef in schema.relation_definitions:
        typing = RelationTyping(schema, rdef.name)
        roles = rdef.roles
        if include_unconstrained:
            candidate_pools = [tuple([classes] * rdef.arity)]
        else:
            # Partition the relevant candidates by the *first* role position
            # carrying a binding Nrel member: positions before it draw from
            # the non-binding members, the position itself from the binding
            # ones, later positions from everything.  Each relevant tuple is
            # generated exactly once.
            binding = {
                role: [members for members in classes
                       if is_binding(nrel.get((members, rdef.name, role), _FREE))]
                for role in roles
            }
            nonbinding = {
                role: [members for members in classes
                       if not is_binding(nrel.get((members, rdef.name, role),
                                                  _FREE))]
                for role in roles
            }
            candidate_pools = []
            for position, role in enumerate(roles):
                pools = ([nonbinding[r] for r in roles[:position]]
                         + [binding[role]]
                         + [list(classes) for _ in roles[position + 1:]])
                candidate_pools.append(tuple(pools))
        found: list[CompoundRelation] = []
        probed = 0
        for pools in candidate_pools:
            if any(not pool for pool in pools):
                continue
            for combo in product(*pools):
                tick()
                probed += 1
                assignment = dict(zip(roles, combo))
                if typing.consistent(assignment):
                    found.append(CompoundRelation(rdef.name, assignment))
                    budget.charge(1, f"relation {rdef.name}")
        result[rdef.name] = tuple(found)
        examined += probed
        cartesian += len(classes) ** rdef.arity
        memo_hits += typing.memo_hits
        memo_misses += typing.memo_misses
    if schema.relation_definitions:
        tracer = current_tracer()
        tracer.add("expansion.candidates_examined", examined)
        tracer.add("expansion.candidates_pruned", cartesian - examined)
        tracer.add("expansion.memo_hits", memo_hits)
        tracer.add("expansion.memo_misses", memo_misses)
    return result
