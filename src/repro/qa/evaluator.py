"""Certain-answer evaluation of rewritten queries over database states.

The rewriter's union of CQs is *complete* for the compiled implication
families, so the certain answers of the original query are exactly the
plain answers of the union over the asserted facts — no reasoning at
evaluation time.  :func:`certain_answers` adds the edge-case handling
rewriting cannot express:

* **inconsistent database** — an object asserted into a class
  combination no model realizes (including any unsatisfiable class)
  makes schema+database unsatisfiable, so *every* tuple is a certain
  answer and every boolean query is entailed; detected by falling back
  to the reasoner's formula satisfiability;
* **boolean entailment** — CAR schemas always admit the empty model, so
  a boolean query is certain iff the rewritten union matches the
  asserted facts (or the database is inconsistent).

Evaluation is an index-nested-loop join over one snapshot of the
database.  Each predicate's rows are hashed on the positions a join
step finds bound, once per union, and every disjunct probes those
indexes instead of rescanning extents (:func:`_evaluate_one`).  The
consistency pass looks each distinct class combination up in a memo on
the schema's rewriter, so a combination costs one reasoner probe per
schema, not one per request.  Both passes tick the ambient budget: the
join once per row indexed and once per row a probe returns.

Soundness requires a *satisfiable* schema in the sense above; see the
rewriting data-flow notes in ``docs/architecture.md``.  Detection is
limited to class-membership inconsistency: a database overfilling a
declared *upper* cardinality bound is not flagged here (use
:meth:`Database.violations <repro.semantics.database.Database.violations>`
for closed-world integrity).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from ..core.budget import current_budget
from ..core.formulas import Lit, conjunction
from ..core.schema import AttrRef
from ..obs.tracer import current_tracer
from ..semantics.database import Database
from ..semantics.interpretation import Interpretation
from .ast import (
    AttributeAtom,
    Atom,
    ClassAtom,
    ConjunctiveQuery,
    Const,
    RelationAtom,
    Term,
    Var,
)
from .rewriter import QueryRewriter, RewriteResult

__all__ = ["QueryAnswer", "certain_answers", "evaluate_disjuncts"]


@dataclass(frozen=True)
class QueryAnswer:
    """The outcome of one certain-answer computation."""

    variables: tuple[str, ...]
    answers: tuple[tuple, ...]
    boolean: bool
    is_boolean: bool
    disjuncts: int
    rewrite_steps: int
    disjuncts_generated: int
    disjuncts_pruned: int
    rewrite_cached: bool
    inconsistent: bool

    def as_document(self) -> dict:
        """The wire/JSON shape served by ``/v1/query`` and the CLI."""
        return {
            "variables": list(self.variables),
            "answers": [list(row) for row in self.answers],
            "boolean": self.boolean,
            "is_boolean": self.is_boolean,
            "disjuncts": self.disjuncts,
            "rewrite": {
                "steps": self.rewrite_steps,
                "generated": self.disjuncts_generated,
                "pruned": self.disjuncts_pruned,
                "cached": self.rewrite_cached,
            },
            "inconsistent": self.inconsistent,
        }


def evaluate_disjuncts(disjuncts: Iterable[ConjunctiveQuery],
                       interpretation: Interpretation) -> set[tuple]:
    """Plain (closed) evaluation of a union of CQs over asserted facts.

    The disjuncts share one :class:`_Facts`, so an index one disjunct
    built serves every later one, and a later disjunct stops early on a
    head tuple an earlier one already answered.  Reports the rows the
    probes returned as the ``qa.rows_probed`` counter.
    """
    facts = _Facts(interpretation, current_budget().tick)
    answers: set[tuple] = set()
    for disjunct in disjuncts:
        _evaluate_one(disjunct, facts, answers)
    current_tracer().add("qa.rows_probed", facts.probed)
    return answers


class _Facts:
    """A snapshot's rows per predicate, and hash indexes over them.

    A predicate is an atom's kind and symbol (and, for a relation, the
    roles in the atom's order); an index maps the values at some of its
    positions to the rows holding them.  Both are built on first use and
    kept for the whole union.  Building an index ticks the budget once
    per row, and so does every row a probe returns.
    """

    __slots__ = ("_interpretation", "tick", "probed", "_extents",
                 "_indexes")

    def __init__(self, interpretation: Interpretation, tick):
        self._interpretation = interpretation
        self.tick = tick
        self.probed = 0
        self._extents: dict[tuple, list[tuple]] = {}
        self._indexes: dict[tuple, dict] = {}

    def extent(self, atom: Atom) -> list[tuple]:
        """Every row of the atom's predicate, positions in atom order."""
        predicate = _predicate(atom)
        rows = self._extents.get(predicate)
        if rows is None:
            rows = self._extents[predicate] = _atom_rows(
                atom, self._interpretation)
        return rows

    def index(self, atom: Atom, positions: tuple[int, ...]) -> dict:
        """The rows of the atom's predicate keyed by their values at
        ``positions``: a bare value for one position, a tuple for more."""
        key = (_predicate(atom), positions)
        index = self._indexes.get(key)
        if index is None:
            rows = self.extent(atom)
            self.tick(len(rows))
            index = self._indexes[key] = {}
            value_at = itemgetter(*positions)
            for row in rows:
                index.setdefault(value_at(row), []).append(row)
        return index


def _predicate(atom: Atom) -> tuple:
    if isinstance(atom, RelationAtom):
        return (RelationAtom, atom.name, atom.roles)
    return (type(atom), atom.name)


def _atom_rows(atom: Atom,
               interpretation: Interpretation) -> list[tuple]:
    if isinstance(atom, ClassAtom):
        return [(obj,) for obj in interpretation.class_ext(atom.name)]
    if isinstance(atom, AttributeAtom):
        return [tuple(pair)
                for pair in interpretation.attr_ref_ext(AttrRef(atom.name))]
    return [tuple(tup[role] for role in atom.roles)
            for tup in interpretation.relation_ext(atom.name)]


def _evaluate_one(query: ConjunctiveQuery, facts: _Facts,
                  answers: set[tuple]) -> None:
    """Add the answers of one CQ to ``answers``: an index-nested-loop join.

    The atoms join in :func:`_join_order`.  Each step probes the index on
    its positions already bound — by a constant or by an earlier step —
    and binds the variables the atom meets first; a variable repeated
    inside the atom is checked on the row.  Bindings live in one list of
    slots that each row overwrites in place, so no binding is copied.
    Once the head is bound, the remaining steps only need one match: they
    stop at the first, and skip a head tuple that is already an answer.
    """
    order = _join_order(query.atoms, facts)
    if order is None:
        return
    if not order:
        answers.add(())
        return
    slots: dict[Term, int] = {}
    values: list = []

    def slot_of(term: Term) -> int:
        if term not in slots:
            slots[term] = len(values)
            values.append(term.value if isinstance(term, Const) else None)
        return slots[term]

    head = set(query.head)
    settled = len(order)  # the first depth at which the head is bound
    bound: set[Var] = set()
    steps = []
    for depth, atom in enumerate(order):
        if depth < settled and head <= bound:
            settled = depth
        key_positions, key_slots, binds, checks = [], [], [], []
        first_at: dict[Var, int] = {}
        for position, term in enumerate(atom.terms()):
            if isinstance(term, Const) or term in bound:
                key_positions.append(position)
                key_slots.append(slot_of(term))
            elif term in first_at:
                checks.append((first_at[term], position))
            else:
                first_at[term] = position
                binds.append((position, slot_of(term)))
        bound.update(first_at)
        if key_positions:
            rows = facts.index(atom, tuple(key_positions))
            key_of = itemgetter(*key_slots)
        else:
            rows, key_of = facts.extent(atom), None
        steps.append((rows, key_of, tuple(binds), tuple(checks)))

    head_slots = [slots[var] for var in query.head]

    def answer() -> tuple:
        return tuple([values[slot] for slot in head_slots])

    if settled == 0 and () in answers:
        return
    tick = facts.tick

    def probe(depth: int):
        rows, key_of, _, _ = steps[depth]
        if key_of is not None:
            rows = rows.get(key_of(values), ())
        tick(len(rows))
        facts.probed += len(rows)
        return iter(rows)

    # Depth-first: pending[d] iterates the rows step d has yet to try.
    last = len(steps)
    pending = [probe(0)]
    while pending:
        depth = len(pending) - 1
        row = next(pending[depth], None)
        if row is None:
            pending.pop()
            continue
        _, _, binds, checks = steps[depth]
        if checks and any(row[a] != row[b] for a, b in checks):
            continue
        for position, slot in binds:
            values[slot] = row[position]
        depth += 1
        if depth == last:
            answers.add(answer())
            # Past ``settled`` the head is fixed: one match is enough.
            del pending[settled:]
        elif depth != settled or answer() not in answers:
            pending.append(probe(depth))


def _join_order(atoms: Sequence[Atom],
                facts: _Facts) -> Optional[list[Atom]]:
    """The atoms in join order, or None when some extent is empty.

    Each step takes the atom with the most positions bound by constants
    or earlier steps, the smallest extent among equals — so the first is
    the smallest extent unless a constant pins another atom.
    """
    sizes = [len(facts.extent(atom)) for atom in atoms]
    if not all(sizes):
        return None
    remaining = list(range(len(atoms)))
    bound: set[Term] = set()
    order: list[Atom] = []
    while remaining:
        _, _, chosen = min(
            (-sum(1 for term in atoms[i].terms()
                  if isinstance(term, Const) or term in bound), sizes[i], i)
            for i in remaining)
        remaining.remove(chosen)
        order.append(atoms[chosen])
        bound.update(atoms[chosen].terms())
    return order


def certain_answers(rewriter: QueryRewriter, query: ConjunctiveQuery,
                    database: Optional[Database] = None, *,
                    reasoner=None) -> QueryAnswer:
    """The certain answers of ``query`` over ``database`` (may be None).

    ``reasoner`` (a :class:`~repro.reasoner.satisfiability.Reasoner` over
    the rewriter's schema) is consulted only for the inconsistency
    fallback; pass None to skip the check when the caller already knows
    the database is consistent.  One snapshot of ``database`` serves both
    the consistency pass and the evaluation.
    """
    tracer = current_tracer()
    rewrite = rewriter.rewrite(query)
    snapshot = database.snapshot() if database is not None else None

    if (snapshot is not None and reasoner is not None
            and _database_inconsistent(snapshot, reasoner, rewriter)):
        tracer.add("qa.inconsistent_databases")
        objects = sorted(snapshot.universe, key=str)
        rows = tuple(product(objects, repeat=query.arity)) \
            if not query.is_boolean else ()
        return _answer(query, rows, boolean=True, rewrite=rewrite,
                       inconsistent=True)

    with tracer.span("qa.evaluate"):
        if snapshot is None:
            answers: set[tuple] = set()
            if query.is_boolean and not query.atoms:
                answers.add(())
        else:
            answers = evaluate_disjuncts(rewrite.disjuncts, snapshot)
    rows = tuple(sorted(answers, key=lambda row: tuple(map(str, row))))
    tracer.add("qa.answers", len(rows))
    return _answer(query, rows, boolean=bool(rows), rewrite=rewrite,
                   inconsistent=False)


def _answer(query: ConjunctiveQuery, rows: tuple,
            boolean: bool, rewrite: RewriteResult,
            inconsistent: bool) -> QueryAnswer:
    return QueryAnswer(
        variables=tuple(var.name for var in query.head),
        answers=rows if not query.is_boolean else (),
        boolean=boolean,
        is_boolean=query.is_boolean,
        disjuncts=len(rewrite.disjuncts),
        rewrite_steps=rewrite.steps,
        disjuncts_generated=rewrite.generated,
        disjuncts_pruned=rewrite.pruned,
        rewrite_cached=rewrite.cached,
        inconsistent=inconsistent,
    )


def _database_inconsistent(snapshot: Interpretation, reasoner,
                           rewriter: QueryRewriter) -> bool:
    """Is some object's asserted class combination unrealizable?

    The cheap pre-check uses the closure's unsatisfiable set.  Then each
    distinct membership combination is looked up in the rewriter's
    :attr:`~repro.qa.rewriter.QueryRewriter.consistency_memo`, and only a
    combination no earlier database had costs a formula-satisfiability
    probe of the reasoner.  Traced as the ``qa.consistency`` span.
    """
    tick = current_budget().tick
    memo = rewriter.consistency_memo
    with current_tracer().span("qa.consistency"):
        memberships: dict = {}
        for name in snapshot.mentioned_classes():
            for obj in snapshot.class_ext(name):
                memberships.setdefault(obj, set()).add(name)
        combinations = {frozenset(classes)
                        for classes in memberships.values()}
        unsatisfiable = set(rewriter.closure.unsatisfiable)
        if any(combination & unsatisfiable for combination in combinations):
            return True
        for combination in combinations:
            tick()
            satisfiable = memo.get(combination)
            if satisfiable is None:
                satisfiable = reasoner.is_formula_satisfiable(conjunction(
                    Lit(name) for name in sorted(combination)))
                memo.put(combination, satisfiable)
            if not satisfiable:
                return True
    return False
