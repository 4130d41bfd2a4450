"""Maximal acceptable support of ``Ψ_S`` — the engine behind Theorem 3.3.

Theorem 3.3: a class ``Cs`` is satisfiable iff ``Ψ_S`` extended with
``Σ_{C̄ ∋ Cs} Var(C̄) ≥ 1`` admits an **acceptable** integer solution
(acceptable: a compound attribute/relation unknown is zero whenever one of
its endpoint compound-class unknowns is zero).

Because ``Ψ_S`` is homogeneous, its solutions form a cone closed under
addition, and acceptability is preserved by addition too (an endpoint of a
sum is zero iff it is zero in both summands).  Hence a unique **maximal
support** exists: the largest set of unknowns simultaneously positive in
some acceptable solution.  Every satisfiability question reduces to a
membership test against this one support; rational witnesses scale to
integer ones by homogeneity (Theorem 4.3).

The computation:

1. **Combinatorial propagation** — cheap sound rules pin obviously-dead
   unknowns: empty merged intervals, positive lower bounds with no live
   summands, zero upper bounds, upper bounds whose compound class is
   already pinned, and the acceptability rule itself (pin a compound
   attribute/relation when an endpoint is pinned).
2. **Max-support LP** — maximize ``Σ t_i`` subject to ``Ψ_S``,
   ``t_i ≤ x_i``, ``t_i ≤ 1`` over the surviving unknowns, delegated to a
   pluggable :class:`~repro.linear.backends.LpBackend`.  The optimum is
   positive on exactly the supportable unknowns.
3. Pin everything the LP zeroed and repeat until nothing changes.

The LP arithmetic lives behind the backend registry of
:mod:`repro.linear.backends`: ``"exact-sparse"`` (the sparse
fraction-free simplex with the §4.4 hierarchy closed form),
``"float-fallback"`` (HiGHS float-first with exact re-verification and an
exact safety net), and ``"auto"`` (size-based choice).  Because the maximal
support is unique, every sound backend yields the same verdicts — the
differential suite in ``tests/test_backends.py`` pins all of them, and a
dense reference simplex kept under ``tests/``, to identical support sets.

When the caller knows the schema is a detected generalization hierarchy it
passes ``hierarchy=True``; the hint is forwarded only to backends whose
declared capabilities include closed-form support, which then answer via
the Section 4.4 construct-and-verify path with zero simplex pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from ..core.cardinality import INFINITY
from ..core.errors import LinearSystemError
from ..expansion.expansion import Expansion
from ..obs.tracer import current_tracer
from .backends import (
    LpBackend,
    backend_capabilities,
    get_backend,
    grouped_columns,
    rationalize,
    verify_rows,
)
from .sparse import OPTIMAL, solve_sparse_lp
from .system import PsiSystem, Unknown, bound_entries, build_system

__all__ = ["SupportResult", "acceptable_support", "minimize_witness", "PinEvent"]


@dataclass(frozen=True)
class PinEvent:
    """Why an unknown was pinned to zero during the support computation.

    ``phase`` is ``"acceptability"`` (an endpoint died first),
    ``"propagation"`` (a cardinality rule refuted it outright), or
    ``"linear"`` (only the LP round could zero it — a global counting
    conflict).  ``reason`` is human-readable; ``round`` the iteration.
    """

    index: int
    phase: str
    reason: str
    round: int


@dataclass(frozen=True)
class SupportResult:
    """The maximal acceptable support of ``Ψ_S`` plus a witness solution.

    ``support`` holds the indices of unknowns that can be positive in an
    acceptable solution; ``solution`` maps every unknown index to its
    rational witness value.  The witness is an acceptable solution positive
    on every supported compound-class unknown; for interchangeable compound
    attributes/relations (identical constraint columns) it concentrates the
    group's value on one representative, keeping denominators small.
    ``rounds`` counts propagation/LP iterations; ``backend_used`` records
    which LP backend produced the final witness; ``pin_log`` the reason each
    pinned unknown was excluded (consumed by unsatisfiability explanations).
    """

    system: PsiSystem
    support: frozenset[int]
    solution: dict[int, Fraction]
    rounds: int
    backend_used: str
    pin_log: tuple[PinEvent, ...] = ()

    def pin_events_for(self, unknown: Unknown) -> list[PinEvent]:
        """The recorded reasons a given unknown was pinned (possibly empty)."""
        index = self.system.index_of(unknown)
        return [event for event in self.pin_log if event.index == index]

    def is_supported(self, unknown: Unknown) -> bool:
        return self.system.index_of(unknown) in self.support

    def supported_compound_classes(self) -> list[frozenset]:
        """Compound classes that can be simultaneously nonempty."""
        return [unknown for i, unknown in enumerate(self.system.unknowns)
                if i in self.support and isinstance(unknown, frozenset)]

    def integer_solution(self, scale: int = 1) -> dict[int, int]:
        """An integer witness: clear denominators, then multiply by ``scale``.

        Homogeneity of ``Ψ_S`` makes any positive multiple a solution again
        (the integrality argument of Theorem 4.3).
        """
        if scale < 1:
            raise LinearSystemError(f"scale must be positive, got {scale}")
        denominators = [value.denominator for value in self.solution.values()] or [1]
        factor = lcm(*denominators) * scale
        return {index: int(value * factor) for index, value in self.solution.items()}


# ----------------------------------------------------------------------
# Combinatorial propagation
# ----------------------------------------------------------------------
def _propagate(system: PsiSystem, active: set[int], entries,
               log: list, round_number: int) -> bool:
    """One pass of the sound pinning rules; returns True when ``active``
    shrank.  Every pin is recorded in ``log`` for explanations."""
    changed = False

    def pin(index: int, phase: str, reason: str) -> None:
        nonlocal changed
        active.discard(index)
        log.append(PinEvent(index, phase, reason, round_number))
        changed = True

    # Acceptability: an endpoint outside `active` kills the compound.
    for index in list(active):
        if any(endpoint not in active for endpoint in system.endpoints_of(index)):
            pin(index, "acceptability",
                "an endpoint compound class cannot be populated")
    for class_index, summands, card, origin in entries:
        live = [s for s in summands if s in active]
        if class_index in active:
            if card.is_empty():
                pin(class_index, "propagation",
                    f"merged cardinality interval {card} is empty [{origin}]")
                continue
            if card.lower >= 1 and not live:
                pin(class_index, "propagation",
                    f"lower bound {card.lower} but no possible partner "
                    f"[{origin}]")
                continue
        if card.upper is not INFINITY:
            # S ≤ upper · Var(C̄): a pinned class or a zero upper bound
            # forces every summand to zero.
            if card.upper == 0 or class_index not in active:
                for s in live:
                    pin(s, "propagation",
                        f"upper bound forces zero links [{origin}]")
    return changed


# ----------------------------------------------------------------------
# Witness minimization (model-synthesis support)
# ----------------------------------------------------------------------
def minimize_witness(result: "SupportResult",
                     merge_columns: bool = True) -> Optional[dict[int, Fraction]]:
    """Public wrapper: a small acceptable witness over ``result.support``."""
    per_unknown = _minimized_witness(result.system, sorted(result.support),
                                     merge_columns)
    if per_unknown is None:
        return None
    return {index: per_unknown.get(index, Fraction(0))
            for index in range(result.system.n_unknowns())}


def _minimized_witness(system: PsiSystem, active: list[int],
                       merge_columns: bool) -> Optional[dict[int, Fraction]]:
    """A small acceptable witness: minimize total mass subject to ``Ψ_S``
    and ``x ≥ 1`` on every supported compound-class unknown.

    The max-support LP certifies *which* unknowns can be positive but its
    vertex can carry large values; model synthesis scales with them, so a
    dedicated minimization pass keeps synthesized databases small.  HiGHS
    answers first when SciPy is installed; a float optimum that does not
    rationalize to an exact certificate falls through to the sparse exact
    core.  Returns None when no optimum is found (the caller then keeps
    the max-support witness).
    """
    groups, rows = grouped_columns(system, active, merge_columns)
    if not groups:
        return {}
    unknowns = system.unknowns
    is_class_group = [isinstance(unknowns[members[0]], frozenset)
                      for members in groups]

    lower_rows: list[dict[int, Fraction]] = []
    for g, is_class in enumerate(is_class_group):
        if is_class:
            lower_rows.append({g: Fraction(-1)})  # -x_g ≤ -1

    values: Optional[list[Fraction]] = None
    floats = _solve_float_min(groups, rows, lower_rows)
    if floats is not None:
        for max_denominator in (60, 10 ** 4, 10 ** 9):
            candidate = rationalize(floats, max_denominator)
            if (verify_rows(rows, candidate)
                    and all(candidate[g] >= 1
                            for g, c in enumerate(is_class_group) if c)):
                values = candidate
                break
    if values is None:
        k = len(groups)
        outcome = solve_sparse_lp(
            dict.fromkeys(range(k), 1), rows + lower_rows,
            [0] * len(rows) + [-1] * len(lower_rows), k, maximize=False)
        if outcome.status == OPTIMAL:
            values = list(outcome.solution)
    if values is None:
        return None

    per_unknown: dict[int, Fraction] = {}
    for members, value in zip(groups, values):
        for var in members:
            per_unknown[var] = Fraction(0)
        if value > 0:
            per_unknown[members[0]] = value
    return per_unknown


def _solve_float_min(groups, rows, lower_rows) -> Optional[list[float]]:
    """HiGHS: minimize Σ x subject to the grouped rows plus lower rows."""
    try:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:
        return None
    k = len(groups)
    data, row_idx, col_idx = [], [], []
    r = 0
    for row in list(rows) + list(lower_rows):
        for g, coeff in row.items():
            data.append(float(coeff))
            row_idx.append(r)
            col_idx.append(g)
        r += 1
    b_ub = [0.0] * len(rows) + [-1.0] * len(lower_rows)
    a_ub = csr_matrix((data, (row_idx, col_idx)), shape=(r, k))
    outcome = linprog(np.ones(k), A_ub=a_ub, b_ub=b_ub,
                      bounds=[(0, None)] * k, method="highs")
    if not outcome.success:
        return None
    return [float(outcome.x[g]) for g in range(k)]


# ----------------------------------------------------------------------
# The fixpoint loop
# ----------------------------------------------------------------------
def acceptable_support(source: Expansion | PsiSystem,
                       backend: str | LpBackend = "auto", *,
                       use_propagation: bool = True,
                       merge_columns: bool = True,
                       restrict_to: Optional[Sequence[int]] = None,
                       hierarchy: bool = False) -> SupportResult:
    """Compute the maximal acceptable support of ``Ψ_S``.

    Accepts either an :class:`Expansion` (the system is built on the fly) or
    a prebuilt :class:`PsiSystem`.  ``backend`` selects the LP arithmetic
    core by registry name — ``"auto"`` (default), ``"exact-sparse"``,
    ``"float-fallback"`` — or may be any object implementing the
    :class:`~repro.linear.backends.LpBackend` protocol.

    ``hierarchy`` asserts the source schema was detected as a
    generalization hierarchy (Section 4.4).  Backends whose capabilities
    declare closed-form support then construct the witness directly and
    verify it exactly instead of running the simplex; the hint is never
    forwarded to backends without that capability, and a failed
    construction silently falls back to the LP, so it can only skip work,
    never change a verdict.

    ``use_propagation`` and ``merge_columns`` disable the two engineering
    optimizations (combinatorial pre-pinning and interchangeable-column
    merging); they exist for the ablation benchmarks and must never change
    the result — a property the test suite asserts.

    ``restrict_to`` limits the computation to a subset of unknown indices,
    treating every other unknown as pinned to zero from the start.  It is
    only sound when the restriction is closed under constraint rows and
    acceptability edges (no constraint or endpoint couples an inside
    unknown to an outside one) — the delta-revalidation path passes whole
    connected components of ``Ψ_S`` here, recombining the result with
    reused verdicts for the untouched components.

    The ambient tracer receives the LP work counters: ``lp.rounds``
    (fixpoint iterations), each round's :attr:`RoundSolution.metrics
    <repro.linear.backends.RoundSolution.metrics>` (the documented
    :data:`~repro.linear.backends.METRIC_KEYS` schema — ``lp.pivots``,
    ``lp.sparse_solves``, ``lp.float_solves``,
    ``lp.hierarchy_closed_form``, ``lp.degenerate_detections``,
    ``lp.float_exact_fallbacks``, ``lp.rationalize_repairs``), and the pin
    tallies ``support.pins_acceptability`` / ``support.pins_propagation`` /
    ``support.pins_linear``.
    """
    lp = get_backend(backend)
    tracer = current_tracer()
    forward_hierarchy = hierarchy and backend_capabilities(lp).closed_form
    system = source if isinstance(source, PsiSystem) else build_system(source)
    entries = bound_entries(system)
    if restrict_to is None:
        active = set(range(system.n_unknowns()))
    else:
        active = set(restrict_to)
    rounds = 0
    backend_used = "propagation"
    values: dict[int, Fraction] = {}
    log: list[PinEvent] = []
    while True:
        rounds += 1
        if use_propagation:
            while _propagate(system, active, entries, log, rounds):
                pass
        if forward_hierarchy:
            solution = lp.solve(system, sorted(active),
                                merge_columns=merge_columns, hierarchy=True)
        else:
            solution = lp.solve(system, sorted(active),
                                merge_columns=merge_columns)
        for name, amount in solution.metrics.items():
            tracer.add(name, amount)
        values, support, backend_used = (solution.values,
                                         set(solution.supported),
                                         solution.backend_used)
        if support == active:
            break
        for index in sorted(active - support):
            log.append(PinEvent(
                index, "linear",
                "the system of disequations admits no acceptable solution "
                "with this unknown positive (a global counting conflict)",
                rounds))
        active = support
        if not active:
            break
    tracer.add("lp.rounds", rounds)
    if log:
        tally: dict[str, int] = {}
        for event in log:
            tally[event.phase] = tally.get(event.phase, 0) + 1
        for phase, count in tally.items():
            tracer.add(f"support.pins_{phase}", count)
    full_solution = {index: values.get(index, Fraction(0))
                     for index in range(system.n_unknowns())}
    return SupportResult(system, frozenset(active), full_solution, rounds,
                         backend_used, tuple(log))
