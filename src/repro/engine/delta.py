"""Schema deltas and diff-aware incremental revalidation.

The paper's cluster decomposition (Theorem 4.6) promises that an edit
confined to one cluster of ``G_S`` need not pay for the others; the
incremental augmented-query path (`Pipeline.seed_augmented`) already
cashes that promise for the special case "one fresh query class".  This
module generalizes it to arbitrary edits between two schema *versions*:

* :class:`SchemaDelta` — the structural diff of two schemas: added,
  removed, and changed class and relation definitions, plus the derived
  **dirty class set** (every class whose preselection rows, enumeration,
  or cardinality entries could have changed);
* :func:`seed_delta` — plans the reuse for a new pipeline: clusters of
  the new schema that exist verbatim in the previous version's partition
  and contain no dirty class keep their enumerated compound classes;
  only touched clusters re-run DPLL (``registry.reuse`` /
  ``registry.rebuilt`` tracer counters, one tick per cluster);
* :func:`merge_support` — grafts support verdicts of untouched ``Ψ_S``
  blocks from the previous version: the system is block-diagonal across
  connected components (constraint rows and acceptability edges never
  span components), so the maximal acceptable support of the whole is
  the union of per-block supports — components whose unknowns, block
  structure, and governing cardinalities are provably unchanged carry
  their old verdicts, witnesses, and pin logs over, and only the dirty
  components are re-solved (``restrict_to`` in
  :func:`~repro.linear.support.acceptable_support`);
* :class:`RevalidationReport` — the per-update accounting the registry
  and service surface (cluster/compound/support-block reuse counters).

Soundness of cluster reuse: the positive closure of a class never leaves
its cluster (criterion 1 of ``G_S`` connects every positive isa
occurrence), so the preselection rows, emptiness and disjointness facts,
and the DPLL enumeration of an untouched cluster are functions of its
member definitions alone — all unchanged.  Compound attributes depend
only on their two endpoints' member definitions; compound relations
additionally on their relation's definition, which is why a changed
relation forces full re-enumeration of its compound relations (but not
of any cluster).  The differential suite in ``tests/test_delta.py``
asserts verdict equality against cold rebuilds across randomized edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from ..core.schema import Schema
from ..linear.support import PinEvent, SupportResult, acceptable_support
from ..linear.system import PsiSystem
from ..obs.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..expansion.expansion import Expansion
    from .artifact import CompiledSchema, SupportSnapshot
    from .pipeline import Pipeline

__all__ = [
    "SchemaDelta",
    "RevalidationReport",
    "seed_delta",
    "merge_support",
]


# ----------------------------------------------------------------------
# The structural diff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemaDelta:
    """The structural difference between two schema versions.

    Definitions are compared structurally (``ClassDef`` / ``RelationDef``
    equality), per symbol; classes that are merely mentioned compare via
    their implicit trivial definition.  ``old`` and ``new`` ride along so
    consumers can resolve definitions from either side.
    """

    old: Schema
    new: Schema
    added_classes: frozenset[str]
    removed_classes: frozenset[str]
    changed_classes: frozenset[str]
    added_relations: frozenset[str]
    removed_relations: frozenset[str]
    changed_relations: frozenset[str]

    @classmethod
    def between(cls, old: Schema, new: Schema) -> "SchemaDelta":
        """Diff two schemas symbol by symbol."""
        old_classes, new_classes = old.class_symbols, new.class_symbols
        changed_classes = frozenset(
            name for name in old_classes & new_classes
            if old.definition(name) != new.definition(name))
        old_rels, new_rels = old.relation_symbols, new.relation_symbols
        changed_relations = frozenset(
            name for name in old_rels & new_rels
            if old.relation(name) != new.relation(name))
        return cls(
            old=old, new=new,
            added_classes=frozenset(new_classes - old_classes),
            removed_classes=frozenset(old_classes - new_classes),
            changed_classes=changed_classes,
            added_relations=frozenset(new_rels - old_rels),
            removed_relations=frozenset(old_rels - new_rels),
            changed_relations=changed_relations,
        )

    def is_empty(self) -> bool:
        return not (self.added_classes or self.removed_classes
                    or self.changed_classes or self.added_relations
                    or self.removed_relations or self.changed_relations)

    def touched_relations(self) -> frozenset[str]:
        """Relations whose compound-relation sets must be re-enumerated."""
        return (self.added_relations | self.removed_relations
                | self.changed_relations)

    def dirty_classes(self) -> frozenset[str]:
        """Classes whose cluster may not be reused.

        A class is dirty when its own definition changed (or appeared),
        or when a touched relation mentions it in a role formula or is
        the target of one of its participation specs — those edits can
        change the class's compound relations and, through the cluster
        graph's criterion 3, its cluster membership.  Clusters are then
        reused only when they match the old partition verbatim *and*
        contain no dirty class.
        """
        dirty = set(self.added_classes) | set(self.changed_classes)
        touched = self.touched_relations()
        for name in touched:
            for schema in (self.old, self.new):
                if schema.has_relation(name):
                    dirty.update(schema.relation(name).mentioned_classes())
        if touched:
            for schema in (self.old, self.new):
                for cdef in schema.class_definitions:
                    if any(spec.relation in touched
                           for spec in cdef.participates):
                        dirty.add(cdef.name)
        return frozenset(dirty)

    def summary(self) -> dict:
        """A small JSON-able rendering (service and CLI reports)."""
        return {
            "added_classes": sorted(self.added_classes),
            "removed_classes": sorted(self.removed_classes),
            "changed_classes": sorted(self.changed_classes),
            "added_relations": sorted(self.added_relations),
            "removed_relations": sorted(self.removed_relations),
            "changed_relations": sorted(self.changed_relations),
        }


# ----------------------------------------------------------------------
# The revalidation accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RevalidationReport:
    """What one schema update cost and what it reused.

    ``mode`` is ``"delta"`` (diff-aware rebuild), ``"fresh"`` (cold
    rebuild — no usable previous artifact, a naive strategy, or a
    hierarchy-shaped schema whose closed form is cheaper), or
    ``"unchanged"`` (the new version fingerprints identically).
    """

    mode: str
    fingerprint_old: Optional[str]
    fingerprint_new: str
    clusters_total: int = 0
    clusters_reused: int = 0
    clusters_rebuilt: int = 0
    compounds_reused: int = 0
    compounds_fresh: int = 0
    support_blocks_reused: int = 0
    support_blocks_solved: int = 0
    duration_s: float = 0.0
    delta: Optional[dict] = field(default=None)

    def to_json(self) -> dict:
        payload = {
            "mode": self.mode,
            "fingerprint_old": self.fingerprint_old,
            "fingerprint_new": self.fingerprint_new,
            "clusters": {
                "total": self.clusters_total,
                "reused": self.clusters_reused,
                "rebuilt": self.clusters_rebuilt,
            },
            "compound_classes": {
                "reused": self.compounds_reused,
                "fresh": self.compounds_fresh,
            },
            "support_blocks": {
                "reused": self.support_blocks_reused,
                "solved": self.support_blocks_solved,
            },
            "duration_s": self.duration_s,
        }
        if self.delta is not None:
            payload["delta"] = self.delta
        return payload


# ----------------------------------------------------------------------
# Seeding a pipeline from (previous artifact, delta)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeltaExpansionSeed:
    """What the expansion stage needs for a partial rebuild: the merged
    compound-class list, which of them were reused verbatim, the previous
    expansion to copy rows from, and the relations that must re-enumerate
    from scratch."""

    classes: tuple[frozenset, ...]
    reused: frozenset
    old: "Expansion"
    touched_relations: frozenset[str]


@dataclass(frozen=True)
class DeltaSupportSeed:
    """What the support stage needs to graft old verdicts: the previous
    system, its stored verdicts, and the compound classes whose clusters
    were reused (the untouched test for block reuse)."""

    prev_system: PsiSystem
    snapshot: "SupportSnapshot"
    reused_classes: frozenset


def seed_delta(pipeline: "Pipeline", prev: "CompiledSchema",
               delta: SchemaDelta) -> bool:
    """Seed ``pipeline`` (for ``delta.new``) with everything reusable from
    ``prev`` (the compiled previous version).  Returns False when the
    diff-aware path does not apply — the caller then builds cold:

    * a ``naive`` strategy enumerates globally, so there is no per-cluster
      reuse unit;
    * a schema the §4.4 closed form covers is answered faster by the
      closed form than by any reuse;
    * a previous artifact without a cluster partition has nothing to match
      against.
    """
    from ..expansion.enumerate import dpll_compound_classes
    from ..expansion.graph import clusters as compute_clusters
    from ..expansion.graph import hierarchy_compound_classes
    from ..expansion.tables import build_tables

    config = pipeline.config
    if config.strategy not in ("auto", "strategic") or prev.clusters is None:
        return False
    tracer = current_tracer()
    with tracer.span("pipeline.delta_seed"), \
            pipeline.timer.stage("delta_seed"):
        new_schema = pipeline.schema
        tables = build_tables(new_schema)
        if (config.strategy == "auto"
                and hierarchy_compound_classes(new_schema, tables)
                is not None):
            return False
        new_clusters = compute_clusters(new_schema, tables)
        dirty = delta.dirty_classes()

        old_index = {component: index
                     for index, component in enumerate(prev.clusters)}
        old_cluster_of = {name: index
                          for index, component in enumerate(prev.clusters)
                          for name in component}
        grouped: dict[int, list[frozenset]] = {}
        for members in prev.expansion.compound_classes:
            if members:
                grouped.setdefault(old_cluster_of[next(iter(members))],
                                   []).append(members)

        combined: list[frozenset] = [frozenset()]
        reused: list[frozenset] = []
        n_reused = n_rebuilt = n_fresh = 0
        for component in new_clusters:
            base = old_index.get(component)
            if base is not None and not (component & dirty):
                rows = grouped.get(base, [])
                combined.extend(rows)
                reused.extend(rows)
                n_reused += 1
                tracer.add("registry.reuse")
            else:
                fresh = [members for members in dpll_compound_classes(
                    new_schema, sorted(component), tables) if members]
                combined.extend(fresh)
                n_fresh += len(fresh)
                n_rebuilt += 1
                tracer.add("registry.rebuilt")

    pipeline._artifacts["tables"] = tables
    pipeline._clusters = new_clusters
    pipeline._hierarchy_effective = False
    pipeline._expansion_delta = DeltaExpansionSeed(
        classes=tuple(combined), reused=frozenset(reused),
        old=prev.expansion, touched_relations=delta.touched_relations())
    if prev.support is not None:
        pipeline._support_seed = DeltaSupportSeed(
            prev_system=prev.system, snapshot=prev.support,
            reused_classes=frozenset(reused))
    pipeline.delta_stats.update({
        "mode": "delta",
        "clusters_total": len(new_clusters),
        "clusters_reused": n_reused,
        "clusters_rebuilt": n_rebuilt,
        "compounds_reused": len(reused),
        "compounds_fresh": n_fresh,
    })
    return True


# ----------------------------------------------------------------------
# Support-block reuse
# ----------------------------------------------------------------------
def _components(system: PsiSystem) -> list[list[int]]:
    """Connected components of ``Ψ_S``: unknowns coupled by a constraint
    row or by an acceptability (endpoint) edge.  The system is
    block-diagonal across these — the structural fact block reuse rests
    on."""
    n = system.n_unknowns()
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for constraint in system.constraints:
        coefficients = constraint.coefficients
        if coefficients:
            first = coefficients[0][0]
            for index, _ in coefficients[1:]:
                union(first, index)
    for index in range(n):
        for endpoint in system.endpoints_of(index):
            union(index, endpoint)

    groups: dict[int, list[int]] = {}
    for index in range(n):
        groups.setdefault(find(index), []).append(index)
    return list(groups.values())


def merge_support(system: PsiSystem, seed: DeltaSupportSeed, *,
                  backend, use_propagation: bool, merge_columns: bool,
                  stats: Optional[dict] = None) -> SupportResult:
    """The support of ``system``, reusing verdicts of untouched blocks.

    A connected component of the new system is **reusable** when every
    compound-class unknown in it belongs to a reused cluster, every
    unknown existed in the previous system, and the component's unknown
    set matches its previous component exactly — then its constraint rows
    are provably identical (cardinality entries and summand sets are
    functions of unchanged definitions), so the old verdicts, witness
    values, and pin log carry over.  All remaining components are solved
    together through :func:`~repro.linear.support.acceptable_support`
    restricted to their indices.
    """
    snapshot = seed.snapshot
    reused_classes = seed.reused_classes
    prev_index = {unknown: i
                  for i, unknown in enumerate(seed.prev_system.unknowns)}
    old_comp_of: dict[object, int] = {}
    old_comp_sets: list[frozenset] = []
    prev_unknowns = seed.prev_system.unknowns
    for cid, component in enumerate(_components(seed.prev_system)):
        members = frozenset(prev_unknowns[i] for i in component)
        old_comp_sets.append(members)
        for i in component:
            old_comp_of[prev_unknowns[i]] = cid

    unknowns = system.unknowns
    active: list[int] = []
    reused_indices: list[int] = []
    blocks_reused = blocks_solved = 0
    for component in _components(system):
        reusable = True
        for i in component:
            unknown = unknowns[i]
            if unknown not in prev_index:
                reusable = False
                break
            if isinstance(unknown, frozenset) and unknown not in reused_classes:
                reusable = False
                break
        if reusable:
            members = frozenset(unknowns[i] for i in component)
            old_cid = old_comp_of[unknowns[component[0]]]
            reusable = old_comp_sets[old_cid] == members
        if reusable:
            blocks_reused += 1
            reused_indices.extend(component)
        else:
            blocks_solved += 1
            active.extend(component)

    if active:
        partial = acceptable_support(
            system, backend, use_propagation=use_propagation,
            merge_columns=merge_columns, restrict_to=sorted(active))
        support = set(partial.support)
        values = dict(partial.solution)
        pin_log = list(partial.pin_log)
        rounds = partial.rounds
        backend_used = partial.backend_used
    else:
        support, values, pin_log = set(), {}, []
        rounds = 0
        backend_used = snapshot.backend_used

    old_values = dict(snapshot.values)
    pins_by_unknown: dict[object, list] = {}
    for unknown, phase, reason, round_number in snapshot.pins:
        pins_by_unknown.setdefault(unknown, []).append(
            (phase, reason, round_number))
    for i in reused_indices:
        unknown = unknowns[i]
        if unknown in snapshot.supported:
            support.add(i)
        values[i] = old_values.get(unknown, Fraction(0))
        for phase, reason, round_number in pins_by_unknown.get(unknown, ()):
            pin_log.append(PinEvent(i, phase, reason, round_number))

    tracer = current_tracer()
    tracer.add("registry.support_blocks_reused", blocks_reused)
    tracer.add("registry.support_blocks_solved", blocks_solved)
    if stats is not None:
        stats["support_blocks_reused"] = blocks_reused
        stats["support_blocks_solved"] = blocks_solved
    full_solution = {i: values.get(i, Fraction(0))
                     for i in range(system.n_unknowns())}
    return SupportResult(system, frozenset(support), full_solution, rounds,
                         backend_used, tuple(pin_log))
