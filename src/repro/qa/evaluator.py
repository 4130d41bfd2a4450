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
from typing import Iterable, Optional, Sequence, Union

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
    """Plain (closed) evaluation of a union of CQs over asserted facts."""
    tick = current_budget().tick
    answers: set[tuple] = set()
    for disjunct in disjuncts:
        answers.update(_evaluate_one(disjunct, interpretation, tick))
    return answers


def _evaluate_one(query: ConjunctiveQuery,
                  interpretation: Interpretation, tick) -> set[tuple]:
    """Backtracking join over the atoms, most selective candidates first."""
    candidates: list[tuple[Atom, list[tuple]]] = []
    for atom in query.atoms:
        rows = _atom_rows(atom, interpretation)
        if not rows:
            return set()
        candidates.append((atom, rows))
    candidates.sort(key=lambda pair: len(pair[1]))

    answers: set[tuple] = set()

    def search(index: int, binding: dict[Var, object]) -> None:
        if index == len(candidates):
            answers.add(tuple(binding[var] for var in query.head))
            return
        atom, rows = candidates[index]
        terms = atom.terms()
        for row in rows:
            tick()
            extended = dict(binding)
            ok = True
            for term, value in zip(terms, row):
                if isinstance(term, Const):
                    if term.value != value:
                        ok = False
                        break
                else:
                    bound = extended.get(term)
                    if bound is None:
                        extended[term] = value
                    elif bound != value:
                        ok = False
                        break
            if ok:
                search(index + 1, extended)

    search(0, {})
    return answers


def _atom_rows(atom: Atom,
               interpretation: Interpretation) -> list[tuple]:
    if isinstance(atom, ClassAtom):
        return [(obj,) for obj in interpretation.class_ext(atom.name)]
    if isinstance(atom, AttributeAtom):
        return [tuple(pair)
                for pair in interpretation.attr_ref_ext(AttrRef(atom.name))]
    return [tuple(tup[role] for role in atom.roles)
            for tup in interpretation.relation_ext(atom.name)]


def certain_answers(rewriter: QueryRewriter, query: ConjunctiveQuery,
                    database: Optional[Database] = None, *,
                    reasoner=None) -> QueryAnswer:
    """The certain answers of ``query`` over ``database`` (may be None).

    ``reasoner`` (a :class:`~repro.reasoner.satisfiability.Reasoner`) is
    consulted only for the inconsistency fallback; pass None to skip the
    check when the caller already knows the database is consistent.
    """
    tracer = current_tracer()
    rewrite = rewriter.rewrite(query)
    interpretation = database.snapshot() if database is not None else None

    inconsistent = False
    if database is not None and reasoner is not None:
        inconsistent = _database_inconsistent(database, reasoner, rewriter)
    if inconsistent:
        tracer.add("qa.inconsistent_databases")
        objects = sorted(interpretation.universe, key=str) \
            if interpretation is not None else []
        rows = tuple(product(objects, repeat=query.arity)) \
            if not query.is_boolean else ()
        return _answer(query, rows, boolean=True, rewrite=rewrite,
                       inconsistent=True)

    with tracer.span("qa.evaluate"):
        if interpretation is None:
            answers: set[tuple] = set()
            if query.is_boolean and not query.atoms:
                answers.add(())
        else:
            answers = evaluate_disjuncts(rewrite.disjuncts, interpretation)
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


def _database_inconsistent(database: Database, reasoner,
                           rewriter: QueryRewriter) -> bool:
    """Is some object's asserted class combination unrealizable?

    The cheap pre-check uses the closure's unsatisfiable set; the full
    check asks the reasoner for formula satisfiability of each distinct
    membership combination (memoized by combination).
    """
    tick = current_budget().tick
    snapshot = database.snapshot()
    unsatisfiable = set(rewriter.closure.unsatisfiable)
    combinations: set[frozenset[str]] = set()
    for obj in snapshot.universe:
        classes = snapshot.classes_of(obj)
        if not classes:
            continue
        if classes & unsatisfiable:
            return True
        combinations.add(frozenset(classes))
    for combination in combinations:
        tick()
        formula = conjunction(Lit(name) for name in sorted(combination))
        if not reasoner.is_formula_satisfiable(formula):
            return True
    return False
