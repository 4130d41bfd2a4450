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

One builder, :func:`build_expansion`, serves cold and incremental builds.
Under the cluster decomposition of Theorem 4.6 a cold build is an
incremental one in which nothing is reused: an :class:`ExpansionSeed`
(planned by :func:`repro.engine.delta.seed_delta` for registry edits and
augmented queries) supplies the compound classes and names the members
whose rows and compound objects are copied from the previous expansion.

Two throughput devices shape this module:

* **Binding-endpoint pruning** — instead of filtering the full Cartesian
  candidate space ``classes × classes`` (resp. ``classes^arity``), the
  builder precomputes the compound classes carrying a *binding* ``Natt`` /
  ``Nrel`` entry per attribute reference / relation role and enumerates
  only the candidates with a binding member, split by their first binding
  position: ``binding_left × classes ∪ (classes ∖ binding_left) ×
  binding_right`` for an attribute — exactly the candidates the default
  filter would keep.  An incremental build splits each part again by the
  first fresh (not reused) position, so it probes only candidates with a
  fresh endpoint; with nothing reused this is the cold split.
* **Endpoint indexes** — :meth:`Expansion.attributes_with_left`,
  :meth:`Expansion.attributes_with_right`, and
  :meth:`Expansion.relations_with_role` answer from prebuilt
  ``(symbol, endpoint) → tuple`` dictionaries instead of scanning the
  compound-object lists, which keeps the ``Ψ_S`` build linear in the number
  of summands instead of quadratic.  They are a cache: built on first
  lookup, left out of pickles.  ``dataclasses.replace(expansion,
  indexed=False)`` restores the linear scans for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import AbstractSet, Optional, Sequence

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
from .enumerate import routed_compound_classes

__all__ = ["Expansion", "ExpansionSeed", "build_expansion", "is_binding"]


def is_binding(card: Card) -> bool:
    """True when a merged cardinality interval yields a disequation at all:
    ``(0, ∞)`` entries constrain nothing and are skipped when selecting the
    compound attributes/relations to materialize."""
    return card.lower > 0 or card.upper is not INFINITY


@dataclass(frozen=True)
class Expansion:
    """The expansion ``S̄``: compound objects plus ``Natt`` / ``Nrel``.

    ``strategy`` is the Phase-1 route that produced the compound classes:
    ``"naive"``, ``"strategic"`` or ``"hierarchy"`` (the §4.4 closed
    form), never the requested ``"auto"``; seeded builds, which reuse
    the classes of a previous enumeration, record ``"strategic"``.
    ``indexed`` controls the endpoint-lookup
    implementation: prebuilt dictionaries (default) versus the legacy
    linear scans, kept for the ablation benchmarks and the
    index-equivalence tests.
    """

    schema: Schema
    compound_classes: tuple[frozenset, ...]
    compound_attributes: dict[str, tuple[CompoundAttribute, ...]]
    compound_relations: dict[str, tuple[CompoundRelation, ...]]
    natt: dict[tuple[frozenset, AttrRef], Card]
    nrel: dict[tuple[frozenset, str, str], Card]
    strategy: str = "strategic"
    indexed: bool = True
    #: Lazily built endpoint indexes (not part of equality/representation,
    #: nor of the pickled state).
    _indexes: Optional[dict] = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # The indexes are a cache a rehydrated expansion rebuilds on its
        # first lookup; pickling them only grows every stored artifact.
        return {**self.__dict__, "_indexes": None}

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


@dataclass(frozen=True)
class ExpansionSeed:
    """The reuse plan of an incremental :func:`build_expansion`.

    ``classes`` is the full (merged) compound-class list; members of
    ``reused`` come verbatim from ``old``, the previous version's
    expansion — clusters the delta planner
    (:func:`repro.engine.delta.seed_delta`) proved untouched.
    ``touched_relations`` names the relations whose definitions changed.
    """

    classes: tuple[frozenset, ...]
    reused: frozenset
    old: Expansion
    touched_relations: frozenset[str] = frozenset()


def build_expansion(schema: Schema, strategy: str = "auto", *,
                    include_unconstrained: bool = False,
                    size_limit: Optional[int] = None,
                    tables=None,
                    seed: Optional[ExpansionSeed] = None) -> Expansion:
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
        this bound — a guard for adversarial schemas.  Objects copied from
        a seed are charged too, so the guard trips on the same totals a
        build without one would.
    tables:
        Optional prebuilt :class:`~repro.expansion.tables.SchemaTables`,
        reused by the strategic enumeration instead of running the
        preselection pass again.
    seed:
        Optional :class:`ExpansionSeed`: build from a previous version's
        expansion.  ``seed.classes`` replaces the enumeration, and the
        result records the route ``"strategic"`` (the classes come per
        cluster).  For the members of ``seed.reused`` the ``Natt``/``Nrel``
        rows, and the compound attributes/relations with *every* endpoint
        reused, are copied from ``seed.old`` instead of being re-derived:
        both are functions of the member definitions alone, which the
        planner guarantees unchanged.  Only candidates with at least one
        fresh endpoint are probed, via a fresh-restricted refinement of
        the binding-endpoint decomposition, so each relevant new candidate
        is generated exactly once.  Relations in
        ``seed.touched_relations`` re-enumerate from scratch —
        compound-relation consistency reads the relation definition, so
        their old rows are not trustworthy even between reused endpoints.
        A cold build is the same build with nothing reused: with an empty
        ``seed.reused`` the candidates are the cold build's, in the same
        order.  ``seed.old`` must come from the same
        ``include_unconstrained`` setting.

    The ambient tracer receives the enumeration counters
    (``expansion.compound_classes``, the DPLL search counters), a seed's
    ``expansion.delta_reused_classes`` / ``expansion.delta_fresh_classes``,
    and the builder counters: ``expansion.candidates_examined`` (probed),
    ``expansion.candidates_copied`` (taken from the seed) and
    ``expansion.candidates_pruned`` (the rest of the full Cartesian
    products), plus ``expansion.memo_hits`` / ``expansion.memo_misses`` of
    the typing memos.

    The candidate loops (and the per-class ``Natt``/``Nrel`` merges) tick
    the ambient :class:`~repro.core.budget.Budget`, so a deadline or step
    bound stops an exploding expansion with
    :class:`~repro.core.errors.BudgetExceeded` — the cooperative analogue
    of the ``size_limit`` memory guard.
    """
    budget = _SizeBudget(size_limit)
    if seed is None:
        route, enumerated = routed_compound_classes(schema, strategy,
                                                    tables=tables)
        classes, reused, old = tuple(enumerated), frozenset(), None
        touched: frozenset[str] = frozenset()
    else:
        route, classes = "strategic", seed.classes
        reused, old, touched = seed.reused, seed.old, seed.touched_relations
        tracer = current_tracer()
        tracer.add("expansion.delta_reused_classes", len(reused))
        tracer.add("expansion.delta_fresh_classes",
                   len(classes) - len(reused))
    budget.charge(len(classes), "compound classes")

    natt = _merged_rows(classes, reused, old.natt if old else {},
                        [(ref,) for ref in schema.attribute_refs()],
                        partial(merged_attr_card, schema))
    participation_keys = {
        (spec.relation, spec.role)
        for cdef in schema.class_definitions for spec in cdef.participates
    }
    nrel = _merged_rows(classes, reused, old.nrel if old else {},
                        list(participation_keys),
                        partial(merged_participation_card, schema))

    # With nothing reused every candidate is fresh: no refinement.
    fresh = frozenset(classes) - reused if reused else None
    tick = current_budget().tick
    tally = _Tally()
    compound_attributes: dict[str, tuple[CompoundAttribute, ...]] = {}
    for attr in sorted(schema.attribute_symbols):
        typing = AttributeTyping(schema, attr)
        binding = [{members for members in classes
                    if include_unconstrained
                    or is_binding(natt.get((members, ref), _FREE))}
                   for ref in (AttrRef(attr), AttrRef(attr, inverse=True))]
        found = [ca for ca in old.compound_attributes.get(attr, ())
                 if ca.left in reused and ca.right in reused
                 ] if fresh is not None else []
        budget.charge(len(found), f"attribute {attr}")
        copied, probed = len(found), 0
        for left, right in _candidates(classes, binding, fresh):
            tick()
            probed += 1
            if typing.consistent(left, right):
                found.append(CompoundAttribute(attr, left, right))
                budget.charge(1, f"attribute {attr}")
        compound_attributes[attr] = tuple(found)
        tally.add(typing, probed, copied, len(classes) ** 2)

    compound_relations: dict[str, tuple[CompoundRelation, ...]] = {}
    for rdef in schema.relation_definitions:
        typing = RelationTyping(schema, rdef.name)
        roles = rdef.roles
        binding = [{members for members in classes
                    if include_unconstrained
                    or is_binding(nrel.get((members, rdef.name, role), _FREE))}
                   for role in roles]
        refine = fresh if rdef.name not in touched else None
        found = [cr for cr in old.compound_relations.get(rdef.name, ())
                 if all(members in reused for _, members in cr.assignment)
                 ] if refine is not None else []
        budget.charge(len(found), f"relation {rdef.name}")
        copied, probed = len(found), 0
        for combo in _candidates(classes, binding, refine):
            tick()
            probed += 1
            assignment = dict(zip(roles, combo))
            if typing.consistent(assignment):
                found.append(CompoundRelation(rdef.name, assignment))
                budget.charge(1, f"relation {rdef.name}")
        compound_relations[rdef.name] = tuple(found)
        tally.add(typing, probed, copied, len(classes) ** rdef.arity)
    if compound_attributes or compound_relations:
        tally.report()

    return Expansion(
        schema=schema,
        compound_classes=classes,
        compound_attributes=compound_attributes,
        compound_relations=compound_relations,
        natt=natt,
        nrel=nrel,
        strategy=route,
    )


def _merged_rows(classes: Sequence[frozenset], reused: frozenset,
                 old_rows: dict, keys: Sequence[tuple], merge) -> dict:
    """The ``Natt`` (or ``Nrel``) rows of ``classes``, keyed
    ``(members, *key)``: copied from ``old_rows`` for reused members,
    merged from the member definitions (``merge(members, *key)``, None
    when no member constrains ``key``) for the others."""
    tick = current_budget().tick
    copied: dict[frozenset, list] = {}
    if reused:
        for key, card in old_rows.items():
            if key[0] in reused:
                copied.setdefault(key[0], []).append((key, card))
    rows: dict = {}
    for members in classes:
        tick()
        if members in reused:
            for key, card in copied.get(members, ()):
                rows[key] = card
            continue
        for key in keys:
            merged = merge(members, *key)
            if merged is not None:
                rows[(members, *key)] = merged
    return rows


def _candidates(classes: Sequence[frozenset], binding: Sequence[set],
                fresh: Optional[frozenset]):
    """Each relevant candidate tuple exactly once, lazily.

    ``binding[p]`` holds the compound classes with a binding entry at
    position ``p`` (an attribute's source and target, a relation's roles);
    only candidates with a binding member somewhere yield a disequation.
    They are split by their first binding position, which skips the rest
    of the Cartesian product without a filter pass over it.  With
    ``fresh`` given, each part is split again by its first fresh position,
    so only candidates with a fresh member emerge — the others were
    copied.
    """
    arity = len(binding)
    for pools in _by_first([classes] * arity, binding):
        parts = (pools,) if fresh is None else _by_first(pools,
                                                         [fresh] * arity)
        for part in parts:
            if all(part):
                yield from product(*part)


def _by_first(pools: list[Sequence], marked: Sequence[AbstractSet]):
    """Split the tuples of ``product(*pools)`` that hold a marked member
    by their first marked position ``q``: positions before ``q`` draw from
    their pool's unmarked members, ``q`` from its marked ones, later
    positions from the whole pool.  Each such tuple lies in exactly one
    part, and part and member order follow the pools."""
    for q in range(len(pools)):
        yield ([[m for m in pools[i] if m not in marked[i]] for i in range(q)]
               + [[m for m in pools[q] if m in marked[q]]]
               + pools[q + 1:])


class _Tally:
    """The builder counters, summed over every attribute and relation and
    reported together: examined + copied + pruned is the full Cartesian
    count."""

    __slots__ = ("examined", "copied", "cartesian", "memo_hits",
                 "memo_misses")

    def __init__(self):
        self.examined = self.copied = self.cartesian = 0
        self.memo_hits = self.memo_misses = 0

    def add(self, typing, examined: int, copied: int, cartesian: int) -> None:
        self.examined += examined
        self.copied += copied
        self.cartesian += cartesian
        self.memo_hits += typing.memo_hits
        self.memo_misses += typing.memo_misses

    def report(self) -> None:
        tracer = current_tracer()
        tracer.add("expansion.candidates_examined", self.examined)
        tracer.add("expansion.candidates_copied", self.copied)
        tracer.add("expansion.candidates_pruned",
                   self.cartesian - self.examined - self.copied)
        tracer.add("expansion.memo_hits", self.memo_hits)
        tracer.add("expansion.memo_misses", self.memo_misses)
