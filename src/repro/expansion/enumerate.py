"""Enumeration of consistent compound classes — naive and strategic.

The trivial method of Section 4.2 filters all ``2^|C|`` subsets.  The
strategic method of Section 4.3 enumerates, per cluster of ``G_S``
(Theorem 4.6), the models of the propositional theory ``{C → F_C}`` with a
DPLL-style backtracking search pruned by the preselection tables.  Both
methods return the same satisfiability verdicts; the strategic one can be
exponentially smaller and faster on clustered schemas, which benchmark
``bench_theorem46_strategies`` measures.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Optional, Sequence

from ..core.budget import current_budget
from ..core.schema import Schema
from ..obs.tracer import current_tracer
from .compound import is_consistent_compound_class
from .graph import clusters, hierarchy_compound_classes
from .tables import SchemaTables, build_tables

__all__ = [
    "naive_compound_classes",
    "dpll_compound_classes",
    "strategic_compound_classes",
    "routed_compound_classes",
    "compound_classes",
]


def naive_compound_classes(schema: Schema) -> list[frozenset[str]]:
    """Reference implementation: filter every subset of the class alphabet.

    Exponential in ``|C|`` always; kept as the baseline the paper's
    strategies are measured against.
    """
    tick = current_budget().tick
    symbols = sorted(schema.class_symbols)
    subsets = chain.from_iterable(
        combinations(symbols, k) for k in range(len(symbols) + 1)
    )
    results: list[frozenset[str]] = []
    for subset in subsets:
        tick()
        if is_consistent_compound_class(schema, frozenset(subset)):
            results.append(frozenset(subset))
    return results


def dpll_compound_classes(schema: Schema, universe: Sequence[str],
                          tables: Optional[SchemaTables] = None
                          ) -> list[frozenset[str]]:
    """All consistent compound classes drawn from ``universe``.

    Classes outside ``universe`` are treated as false (the Theorem 4.6
    cluster assumption).  The search assigns classes one by one, tracking the
    clauses activated by true assignments; a branch dies as soon as an
    activated clause is falsified or the tables prove a disjointness/empty
    violation.

    The ambient tracer receives the search counters once per call:
    ``expansion.dpll_branches`` (assignments explored),
    ``expansion.dpll_clause_refuted`` (branches killed by a falsified
    clause), and ``expansion.dpll_table_pruned`` (branches killed by the
    preselection tables before any clause was evaluated).

    The search is governed by the ambient
    :class:`~repro.core.budget.Budget`: every node visit ticks it, so a
    deadline or step bound cuts the (worst-case exponential) search off
    with :class:`~repro.core.errors.BudgetExceeded`.
    """
    tick = current_budget().tick
    order = sorted(universe)
    inside = frozenset(order)

    # Pre-simplify each class's isa clauses against the all-false outside:
    # positive outside literals drop, negative outside literals satisfy the
    # whole clause.  Each remaining clause is a list of (name, wanted) pairs.
    simplified: dict[str, list[list[tuple[str, bool]]]] = {}
    for name in order:
        clause_list: list[list[tuple[str, bool]]] = []
        for clause in schema.definition(name).isa:
            pairs: list[tuple[str, bool]] = []
            satisfied_outside = False
            for lit in clause:
                if lit.name in inside:
                    pairs.append((lit.name, lit.positive))
                elif not lit.positive:
                    satisfied_outside = True
                    break
            if satisfied_outside:
                continue
            clause_list.append(pairs)
        simplified[name] = clause_list

    results: list[frozenset[str]] = []
    assignment: dict[str, bool] = {}
    chosen: list[str] = []
    # Search counters, kept as plain locals so the disabled-tracing path
    # pays integer increments only; reported to the tracer once at the end.
    counts = {"branches": 0, "clause_refuted": 0, "table_pruned": 0}

    def clause_status(pairs: list[tuple[str, bool]]) -> str:
        """'sat', 'unsat', or 'open' under the current partial assignment."""
        open_literal = False
        for name, wanted in pairs:
            value = assignment.get(name)
            if value is None:
                open_literal = True
            elif value == wanted:
                return "sat"
        return "open" if open_literal else "unsat"

    def active_clauses_ok() -> bool:
        for name in chosen:
            for pairs in simplified[name]:
                if clause_status(pairs) == "unsat":
                    return False
        return True

    def search(index: int) -> None:
        tick()
        if index == len(order):
            results.append(frozenset(chosen))
            return
        name = order[index]

        # Branch: name is false.
        counts["branches"] += 1
        assignment[name] = False
        if active_clauses_ok():
            search(index + 1)
        else:
            counts["clause_refuted"] += 1
        del assignment[name]

        # Branch: name is true.
        if tables is not None:
            if name in tables.empty_classes:
                counts["table_pruned"] += 1
                return
            if any(tables.are_disjoint(name, other) for other in chosen):
                counts["table_pruned"] += 1
                return
            # A provable superclass assigned false refutes the branch early.
            for sup in tables.superclasses(name):
                if sup in inside and assignment.get(sup) is False:
                    counts["table_pruned"] += 1
                    return
        counts["branches"] += 1
        assignment[name] = True
        chosen.append(name)
        if active_clauses_ok():
            search(index + 1)
        else:
            counts["clause_refuted"] += 1
        chosen.pop()
        del assignment[name]

    search(0)
    tracer = current_tracer()
    tracer.add("expansion.dpll_branches", counts["branches"])
    tracer.add("expansion.dpll_clause_refuted", counts["clause_refuted"])
    tracer.add("expansion.dpll_table_pruned", counts["table_pruned"])
    return results


def strategic_compound_classes(schema: Schema,
                               tables: Optional[SchemaTables] = None
                               ) -> list[frozenset[str]]:
    """Section 4.3 strategy: preselection tables + per-cluster enumeration.

    Returns the consistent compound classes of the Theorem 4.6 schema ``S'``:
    each is contained in a single cluster of ``G_S``.
    """
    if tables is None:
        tables = build_tables(schema)
    results: list[frozenset[str]] = [frozenset()]
    for component in clusters(schema, tables):
        for compound in dpll_compound_classes(schema, sorted(component),
                                              tables):
            if compound:
                results.append(compound)
    return results


def routed_compound_classes(schema: Schema, strategy: str = "auto",
                            tables: Optional[SchemaTables] = None
                            ) -> tuple[str, list[frozenset[str]]]:
    """Enumerate consistent compound classes with the requested strategy,
    and name the route that ran.

    * ``"naive"`` — filter all subsets (Section 4.2's trivial method);
    * ``"strategic"`` — tables + clusters + DPLL (Section 4.3);
    * ``"auto"`` — the closed form for generalization hierarchies
      (Section 4.4, route ``"hierarchy"``) when the schema is one, else
      ``"strategic"``.

    Returns ``(route, classes)`` with ``route`` one of ``"naive"``,
    ``"strategic"`` or ``"hierarchy"``: the one place Phase 1 decides
    whether a schema is a hierarchy.  ``tables`` optionally supplies
    prebuilt preselection tables, shared by the caller across pipeline
    stages so the preselection pass runs once per schema (the naive
    strategy ignores them).
    """
    if strategy not in ("auto", "naive", "strategic"):
        raise ValueError(f"unknown enumeration strategy {strategy!r}")
    tracer = current_tracer()
    if strategy == "naive":
        route, results = "naive", naive_compound_classes(schema)
    else:
        if tables is None:
            tables = build_tables(schema)
        results = (hierarchy_compound_classes(schema, tables)
                   if strategy == "auto" else None)
        if results is not None:
            route = "hierarchy"
            tracer.add("expansion.hierarchy_closed_form")
        else:
            route = "strategic"
            results = strategic_compound_classes(schema, tables)
    tracer.add("expansion.compound_classes", len(results))
    return route, results


def compound_classes(schema: Schema, strategy: str = "auto",
                     tables: Optional[SchemaTables] = None
                     ) -> list[frozenset[str]]:
    """The compound classes of :func:`routed_compound_classes`, without
    the route."""
    return routed_compound_classes(schema, strategy, tables)[1]
