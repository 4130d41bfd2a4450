"""Schema deltas and diff-aware incremental rebuilds.

The paper's cluster decomposition (Theorem 4.6) promises that an edit
confined to one cluster of ``G_S`` need not pay for the others.  This
module cashes that promise for any edit between two schema *versions*,
through :meth:`Pipeline.recompile_from
<repro.engine.pipeline.Pipeline.recompile_from>` — the one incremental
path: registry edits take it, and so do the reasoner's augmented queries
(the schema plus one fresh query class, ``Reasoner.augmented_with``):

* :class:`SchemaDelta` — the structural diff of two schemas: added,
  removed, and changed class and relation definitions, plus the derived
  **dirty class set** (every class whose enumeration or cardinality
  entries could have changed);
* :func:`seed_delta` — plans the reuse for a new pipeline from the stage
  products the previous pipeline has built: preselection-table rows whose
  positive part holds no changed class are kept, and clusters of the new
  schema that exist verbatim in the previous partition and contain no
  dirty class keep their enumerated compound classes; only touched
  clusters re-run DPLL (``registry.reuse`` / ``registry.rebuilt`` tracer
  counters, one tick per cluster — augmented queries count too);
* :func:`merge_support` — grafts support verdicts of untouched ``Ψ_S``
  blocks from the previous version: the system is block-diagonal across
  connected components (constraint rows and acceptability edges never
  span components), so the maximal acceptable support of the whole is
  the union of per-block supports — components whose unknowns, block
  structure, and governing cardinalities are provably unchanged carry
  their old verdicts, witnesses, and pin logs over, and only the dirty
  components are re-solved (``restrict_to`` in
  :func:`~repro.linear.support.acceptable_support`;
  ``registry.support_blocks_reused`` / ``_solved`` counters);
* :class:`RevalidationReport` — the per-update accounting the registry
  and service surface (cluster/compound/support-block reuse counters).

Soundness of cluster reuse: the positive closure of a class never leaves
its cluster (criterion 1 of ``G_S`` connects every positive isa
occurrence), so the DPLL enumeration of an untouched cluster is a
function of its member definitions and their table rows alone — all
unchanged.  Compound attributes depend
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
from ..expansion.expansion import ExpansionSeed
from ..linear.support import PinEvent, SupportResult, acceptable_support
from ..linear.system import PsiSystem
from ..obs.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
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
# Seeding a pipeline from (previous pipeline, delta)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeltaSupportSeed:
    """What the support stage needs to graft old verdicts: the previous
    solved support (over the previous system) and the compound classes
    whose clusters were reused (the untouched test for block reuse)."""

    previous: SupportResult
    reused_classes: frozenset


def seed_delta(pipeline: "Pipeline", prev: "Pipeline",
               delta: SchemaDelta) -> bool:
    """Seed ``pipeline`` (for ``delta.new``) with everything reusable from
    ``prev`` (the previous version's pipeline), reading only the stage
    products ``prev`` has built — the seeds hold those products, never
    ``prev`` itself.  Returns False when the diff-aware path does not
    apply — the caller then builds cold:

    * a ``naive`` strategy or route enumerates globally, so there is no
      per-cluster reuse unit;
    * ``prev`` has not built its expansion, so there is nothing to reuse;
    * a schema the §4.4 closed form covers is answered faster by the
      closed form than by any reuse (the pipeline keeps the tables this
      test built).
    """
    from ..expansion.enumerate import dpll_compound_classes
    from ..expansion.graph import clusters as compute_clusters
    from ..expansion.graph import hierarchy_compound_classes
    from ..expansion.tables import build_tables

    config = pipeline.config
    built = prev._artifacts
    old_expansion = built.get("expansion")
    if (config.strategy == "naive" or old_expansion is None
            or old_expansion.strategy == "naive"):
        return False
    tracer = current_tracer()
    with tracer.span("pipeline.delta_seed"), \
            pipeline.timer.stage("delta_seed"):
        new_schema = pipeline.schema
        tables = build_tables(new_schema, previous=built.get("tables"),
                              changed=delta.changed_classes)
        if (config.strategy == "auto"
                and hierarchy_compound_classes(new_schema, tables)
                is not None):
            pipeline._artifacts["tables"] = tables
            return False
        new_clusters = compute_clusters(new_schema, tables)
        dirty = delta.dirty_classes()

        old_index = {component: index
                     for index, component in enumerate(prev.clusters())}
        old_cluster_of = prev.cluster_of()
        grouped: dict[int, list[frozenset]] = {}
        for members in old_expansion.compound_classes:
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
    pipeline._expansion_seed = ExpansionSeed(
        classes=tuple(combined), reused=frozenset(reused),
        old=old_expansion, touched_relations=delta.touched_relations())
    previous_support = built.get("support")
    if previous_support is not None:
        pipeline._support_seed = DeltaSupportSeed(
            previous=previous_support, reused_classes=frozenset(reused))
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
def merge_support(system: PsiSystem, seed: DeltaSupportSeed, *,
                  backend, stats: Optional[dict] = None) -> SupportResult:
    """The support of ``system``, reusing verdicts of untouched blocks.

    A connected component of the new system (:meth:`PsiSystem.components
    <repro.linear.system.PsiSystem.components>`) is **reusable** when every
    compound-class unknown in it belongs to a reused cluster, every
    unknown existed in the previous system, and the component is exactly
    as large as the previous component holding those unknowns — an
    endpoint edge joins the same unknowns in both systems, so the old
    unknowns of a reusable component all sit in one previous component,
    and equal sizes make the two the same.  Then its constraint rows are
    provably identical (cardinality entries and summand sets are functions
    of unchanged definitions), so the old verdicts, witness values, and
    pin log carry over, mapped through the previous system's unknown
    indices.  All remaining components are solved together through
    :func:`~repro.linear.support.acceptable_support` restricted to their
    indices.
    """
    previous = seed.previous
    reused_classes = seed.reused_classes
    lookup = previous.system.lookup
    # Previous component sizes, keyed by each compound class in it (the
    # compound classes lead every component).
    n_old_classes = len(previous.system.class_unknown_indices())
    old_size: dict[int, int] = {}
    for component in previous.system.components():
        for j in component:
            if j >= n_old_classes:
                break
            old_size[j] = len(component)

    unknowns = system.unknowns
    n_classes = len(system.class_unknown_indices())
    active: list[int] = []
    old_to_new: dict[int, int] = {}
    blocks_reused = blocks_solved = 0
    for component in system.components():
        mapped = []
        for i in component:
            unknown = unknowns[i]
            j = lookup(unknown)
            if j is None or (i < n_classes
                             and unknown not in reused_classes):
                break
            mapped.append(j)
        else:
            if old_size[mapped[0]] == len(component):
                blocks_reused += 1
                old_to_new.update(zip(mapped, component))
                continue
        blocks_solved += 1
        active.extend(component)

    if active:
        partial = acceptable_support(system, backend,
                                     restrict_to=sorted(active))
        support = set(partial.support)
        values = dict(partial.solution)
        pin_log = list(partial.pin_log)
        rounds = partial.rounds
        backend_used = partial.backend_used
    else:
        support, values, pin_log = set(), {}, []
        rounds = 0
        backend_used = previous.backend_used

    zero = Fraction(0)
    old_solution = previous.solution
    old_support = previous.support
    for j, i in old_to_new.items():
        if j in old_support:
            support.add(i)
        values[i] = old_solution.get(j, zero)
    for event in previous.pin_log:
        i = old_to_new.get(event.index)
        if i is not None:
            pin_log.append(PinEvent(i, event.phase, event.reason,
                                    event.round))

    tracer = current_tracer()
    tracer.add("registry.support_blocks_reused", blocks_reused)
    tracer.add("registry.support_blocks_solved", blocks_solved)
    if stats is not None:
        stats["support_blocks_reused"] = blocks_reused
        stats["support_blocks_solved"] = blocks_solved
    full_solution = {i: values.get(i, zero)
                     for i in range(system.n_unknowns())}
    return SupportResult(system, frozenset(support), full_solution, rounds,
                         backend_used, tuple(pin_log))
