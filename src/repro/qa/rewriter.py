"""PerfectRef-style rewriting of conjunctive queries into unions of CQs.

Given the schema's precompiled :class:`~repro.qa.closure.ClosureIndex`,
the rewriter saturates a query under three step families until no new
disjunct appears:

* **atom specialization** — replace ``C(t)`` by ``D(t)`` for every
  implied subclass ``D ⊑ C``, and by a relation atom placing ``t`` at a
  role whose fillers are certainly ``C`` (domain/range constraints);
* **atom elimination** — drop a relation/attribute atom whose other
  positions are unbound existential variables, replacing it by ``C(t)``
  for a class with implied *mandatory* participation (lower bound ≥ 1):
  every ``C``-object certainly carries such a link, named or not;
* **unification/reduction** — unify two atoms of the same predicate
  (most-general unifier, head variables and constants rigid); the merged
  query may unlock eliminations the shared variable blocked.

Every generated disjunct is canonically renamed, so saturation
terminates: atom counts never grow and the predicate alphabet is finite.
A final subsumption pass drops disjuncts a more general disjunct maps
into homomorphically.  Results are cached per canonicalized query — the
cache key is effectively ``(schema fingerprint, canonical query)``
because one rewriter serves exactly one compiled schema.

Evaluating the union over the *asserted* database facts then yields the
certain answers — sound for satisfiable schemas (see
``docs/architecture.md``), complete for the implication families above.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..core.budget import current_budget
from ..obs.tracer import current_tracer
from .ast import (
    Atom,
    AttributeAtom,
    ClassAtom,
    ConjunctiveQuery,
    Const,
    RelationAtom,
    Term,
    Var,
    canonical_query,
    render_query,
)
from .closure import ClosureIndex

__all__ = ["QueryRewriter", "RewriteResult"]

#: Bound on the rewriter's per-schema result cache (LRU eviction beyond).
REWRITE_CACHE_LIMIT = 256


@dataclass(frozen=True)
class RewriteResult:
    """A rewritten query: the union of CQs plus how it was produced."""

    disjuncts: tuple[ConjunctiveQuery, ...]
    steps: int
    generated: int
    pruned: int
    cached: bool


class QueryRewriter:
    """Rewrites queries against one schema's implication closure.

    Instances are cheap — all heavy lifting happened in
    :func:`~repro.qa.closure.build_closure_index` — and hold the
    per-schema rewrite cache, keyed by the canonical rendering of the
    input query (the schema-fingerprint half of the documented cache key
    is the rewriter's identity).
    """

    def __init__(self, closure: ClosureIndex,
                 cache_limit: int = REWRITE_CACHE_LIMIT):
        self._closure = closure
        self._cache: OrderedDict[str, RewriteResult] = OrderedDict()
        self._cache_limit = cache_limit

    @property
    def closure(self) -> ClosureIndex:
        return self._closure

    def rewrite(self, query: ConjunctiveQuery) -> RewriteResult:
        """The union of CQs whose plain evaluation gives certain answers."""
        tracer = current_tracer()
        seed = canonical_query(query)
        key = render_query(seed)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            tracer.add("qa.rewrite_cache_hits")
            return RewriteResult(cached.disjuncts, cached.steps,
                                 cached.generated, cached.pruned,
                                 cached=True)
        tracer.add("qa.rewrite_cache_misses")
        with tracer.span("qa.rewrite"):
            result = self._saturate(seed)
        self._cache[key] = result
        if len(self._cache) > self._cache_limit:
            self._cache.popitem(last=False)
        tracer.add("qa.rewrite_steps", result.steps)
        tracer.add("qa.disjuncts_generated", result.generated)
        tracer.add("qa.disjuncts_pruned", result.pruned)
        return result

    # ------------------------------------------------------------------
    # Saturation
    # ------------------------------------------------------------------
    def _saturate(self, seed: ConjunctiveQuery) -> RewriteResult:
        tick = current_budget().tick
        seen: dict[str, ConjunctiveQuery] = {render_query(seed): seed}
        frontier = [seed]
        steps = 0
        while frontier:
            query = frontier.pop()
            for candidate in self._one_step(query):
                steps += 1
                tick()
                canonical = canonical_query(candidate)
                key = render_query(canonical)
                if key not in seen:
                    seen[key] = canonical
                    frontier.append(canonical)
        disjuncts = list(seen.values())
        kept = _prune_subsumed(disjuncts, tick)
        return RewriteResult(tuple(kept), steps, len(disjuncts),
                             len(disjuncts) - len(kept), cached=False)

    def _one_step(self, query: ConjunctiveQuery):
        closure = self._closure
        atoms = query.atoms
        for index, atom in enumerate(atoms):
            if isinstance(atom, ClassAtom):
                # Specialization along implied subsumptions.
                for sub in sorted(closure.subclasses.get(atom.name, ())):
                    yield _replace(query, index, ClassAtom(sub, atom.term))
                # Domain/range specialization: any tuple placing the term
                # at a role whose fillers are certainly this class.
                for (relation, role), fillers in closure.role_fillers.items():
                    if atom.name not in fillers:
                        continue
                    roles = closure.relation_roles[relation]
                    yield _replace(query, index,
                                   _relation_probe(query, relation, roles,
                                                   role, atom.term))
            elif isinstance(atom, AttributeAtom):
                yield from self._eliminate_attribute(query, index, atom)
            else:
                yield from self._eliminate_relation(query, index, atom)
        # Unification/reduction of same-predicate atom pairs.
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                unified = _unify_atoms(query, i, j)
                if unified is not None:
                    yield unified

    def _eliminate_attribute(self, query: ConjunctiveQuery, index: int,
                             atom: AttributeAtom):
        from ..core.schema import AttrRef

        closure = self._closure
        if query.is_unshared_existential(atom.filler):
            for name, refs in closure.mandatory_attributes.items():
                if AttrRef(atom.name) in refs:
                    yield _replace(query, index, ClassAtom(name, atom.source))
        if query.is_unshared_existential(atom.source):
            for name, refs in closure.mandatory_attributes.items():
                if AttrRef(atom.name, inverse=True) in refs:
                    yield _replace(query, index, ClassAtom(name, atom.filler))

    def _eliminate_relation(self, query: ConjunctiveQuery, index: int,
                            atom: RelationAtom):
        closure = self._closure
        occurrences = query.term_occurrences()

        def unbound_except(keep: int) -> bool:
            return all(
                isinstance(term, Var) and term not in query.head
                and occurrences.get(term, 0) == 1
                for pos, term in enumerate(atom.args) if pos != keep)

        for pos, role in enumerate(atom.roles):
            if not unbound_except(pos):
                continue
            for name, pairs in closure.mandatory_relations.items():
                if (atom.name, role) in pairs:
                    yield _replace(query, index,
                                   ClassAtom(name, atom.args[pos]))


# ----------------------------------------------------------------------
# Step helpers
# ----------------------------------------------------------------------
def _replace(query: ConjunctiveQuery, index: int,
             atom: Atom) -> ConjunctiveQuery:
    atoms = query.atoms[:index] + (atom,) + query.atoms[index + 1:]
    return ConjunctiveQuery(query.head, atoms, query.name)


def _relation_probe(query: ConjunctiveQuery, relation: str,
                    roles: tuple[str, ...], role: str,
                    term: Term) -> RelationAtom:
    """A relation atom placing ``term`` at ``role``, every other position a
    fresh existential variable."""
    taken = {var.name for var in query.variables()}
    args: list[Term] = []
    counter = 0
    for candidate in roles:
        if candidate == role:
            args.append(term)
            continue
        name = f"w{counter}"
        while name in taken:
            counter += 1
            name = f"w{counter}"
        taken.add(name)
        args.append(Var(name))
    return RelationAtom(relation, roles, tuple(args))


def _unify_atoms(query: ConjunctiveQuery, i: int,
                 j: int) -> Optional[ConjunctiveQuery]:
    """Unify atoms ``i`` and ``j`` if they share a predicate; None otherwise.

    Head variables and constants are rigid; existential variables bind
    freely.  The substitution applies to the whole query and the now
    duplicate atom is dropped.
    """
    a, b = query.atoms[i], query.atoms[j]
    if type(a) is not type(b) or a.name != b.name:
        return None
    substitution: dict[Term, Term] = {}

    def resolve(term: Term) -> Term:
        while term in substitution:
            term = substitution[term]
        return term

    def rigid(term: Term) -> bool:
        return isinstance(term, Const) or term in query.head

    for left, right in zip(a.terms(), b.terms()):
        left, right = resolve(left), resolve(right)
        if left == right:
            continue
        if rigid(left) and rigid(right):
            return None
        if rigid(left):
            substitution[right] = left
        else:
            substitution[left] = right
    if not substitution:
        return None

    def apply(term: Term) -> Term:
        return resolve(term)

    atoms: list[Atom] = []
    for index, atom in enumerate(query.atoms):
        if index == j:
            continue
        atoms.append(atom.with_terms(tuple(apply(t) for t in atom.terms())))
    deduped: list[Atom] = []
    for atom in atoms:
        if atom not in deduped:
            deduped.append(atom)
    return ConjunctiveQuery(query.head, tuple(deduped), query.name)


# ----------------------------------------------------------------------
# Subsumption pruning
# ----------------------------------------------------------------------
def _prune_subsumed(disjuncts: list[ConjunctiveQuery],
                    tick) -> list[ConjunctiveQuery]:
    """Drop disjuncts a *more general* disjunct maps into.

    If there is a homomorphism from ``P`` to ``Q`` fixing head variables,
    every answer ``Q`` retrieves ``P`` retrieves too, so ``Q`` is
    redundant in the union.  Kept disjuncts are scanned in ascending atom
    count — smaller queries are the more general candidates.
    """
    ordered = sorted(disjuncts, key=lambda q: (len(q.atoms),
                                               render_query(q)))
    kept: list[ConjunctiveQuery] = []
    for query in ordered:
        tick()
        if any(_maps_into(general, query) for general in kept):
            continue
        kept.append(query)
    return kept


def _maps_into(general: ConjunctiveQuery,
               specific: ConjunctiveQuery) -> bool:
    """Is there a homomorphism ``general → specific`` fixing the head?"""
    if general.head != specific.head:
        return False

    atoms = general.atoms
    targets = specific.atoms

    def compatible(atom: Atom, target: Atom,
                   mapping: dict[Term, Term]) -> Optional[dict[Term, Term]]:
        if type(atom) is not type(target) or atom.name != target.name:
            return None
        extended = dict(mapping)
        for src, dst in zip(atom.terms(), target.terms()):
            if isinstance(src, Const):
                if src != dst:
                    return None
                continue
            bound = extended.get(src)
            if bound is None:
                if src in general.head and src != dst:
                    return None
                extended[src] = dst
            elif bound != dst:
                return None
        return extended

    def search(index: int, mapping: dict[Term, Term]) -> bool:
        if index == len(atoms):
            return True
        for target in targets:
            extended = compatible(atoms[index], target, mapping)
            if extended is not None and search(index + 1, extended):
                return True
        return False

    return search(0, {var: var for var in general.head})
