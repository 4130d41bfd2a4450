"""The dense two-phase rational simplex: a test-only reference LP core.

The package solves every exact LP on the sparse fraction-free tableau of
:mod:`repro.linear.sparse`.  This module keeps the textbook alternative —
a dense all-:class:`~fractions.Fraction` tableau with an explicit two-phase
method — as an independent oracle: the differential tests compare the
sparse core against it, and the LP-backend and registry benchmarks measure
their speedup bars against it.

Problems are given in the form::

    maximize    c · x
    subject to  A x ≤ b,   x ≥ 0

Bland's anti-cycling rule guarantees termination.

:class:`DenseReference` wraps the dense core in the
:class:`~repro.linear.backends.LpBackend` protocol.  It is never
registered; pass an instance wherever a backend is accepted
(``acceptable_support(system, backend=DenseReference())``,
``EngineConfig(lp_backend=DenseReference())``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from repro.core.budget import current_budget
from repro.core.errors import LinearSystemError
from repro.linear.backends import (
    BackendCapabilities,
    BackendDescription,
    RoundSolution,
    _concentrated,
    bump_metric,
    grouped_columns,
)
from repro.linear.sparse import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult
from repro.linear.system import PsiSystem

__all__ = ["solve_lp", "solve_sparse_lp", "solve_groups", "DenseReference"]


def _to_fraction_matrix(rows: Sequence[Sequence], width: int) -> list[list[Fraction]]:
    matrix = []
    for row in rows:
        if len(row) != width:
            raise LinearSystemError(f"constraint row of width {len(row)}, expected {width}")
        matrix.append([Fraction(value) for value in row])
    return matrix


class _Tableau:
    """A dense simplex tableau for ``max c·x  s.t.  A x = b, x ≥ 0``.

    Rows: one per constraint; the objective row is kept separately.
    ``basis[i]`` is the variable currently basic in row ``i``.
    """

    def __init__(self, matrix: list[list[Fraction]], rhs: list[Fraction],
                 objective: list[Fraction], basis: list[int]):
        self.matrix = matrix
        self.rhs = rhs
        self.objective = objective  # reduced-cost row (c - z), length n
        self.obj_value = Fraction(0)
        self.basis = basis
        self.pivots = 0

    def price_out(self) -> None:
        """Make reduced costs of basic variables zero."""
        for row_index, var in enumerate(self.basis):
            coeff = self.objective[var]
            if coeff != 0:
                self._add_row_multiple(row_index, -coeff)

    def _add_row_multiple(self, row_index: int, factor: Fraction) -> None:
        # Substituting the basic variable of `row_index` into the objective:
        # z = obj_value + Σ objective_j x_j with x_b = rhs - Σ a_j x_j gives
        # objective += factor·row and obj_value -= factor·rhs.
        row = self.matrix[row_index]
        for j, value in enumerate(row):
            if value:
                self.objective[j] += factor * value
        self.obj_value -= factor * self.rhs[row_index]

    def pivot(self, row_index: int, col: int) -> None:
        pivot_value = self.matrix[row_index][col]
        if pivot_value == 0:
            raise LinearSystemError("pivot on a zero element")
        row = self.matrix[row_index]
        inv = Fraction(1) / pivot_value
        self.matrix[row_index] = [value * inv for value in row]
        self.rhs[row_index] *= inv
        pivot_row = self.matrix[row_index]
        for i, other in enumerate(self.matrix):
            if i == row_index:
                continue
            factor = other[col]
            if factor:
                self.matrix[i] = [a - factor * b for a, b in zip(other, pivot_row)]
                self.rhs[i] -= factor * self.rhs[row_index]
        factor = self.objective[col]
        if factor:
            self.objective = [a - factor * b for a, b in zip(self.objective, pivot_row)]
            self.obj_value += factor * self.rhs[row_index]
        self.basis[row_index] = col
        self.pivots += 1

    def run(self, *, allowed_cols: Optional[set[int]] = None) -> str:
        """Primal simplex iterations with Bland's rule.

        ``allowed_cols`` restricts entering variables (used in phase 2 to
        keep artificial variables out).  Returns OPTIMAL or UNBOUNDED.

        Each iteration (one pivot at most) ticks the ambient
        :class:`~repro.core.budget.Budget`, so a deadline or step bound
        interrupts long pivot sequences with
        :class:`~repro.core.errors.BudgetExceeded`.
        """
        tick = current_budget().tick
        n = len(self.objective)
        while True:
            tick()
            entering = -1
            for j in range(n):
                if allowed_cols is not None and j not in allowed_cols:
                    continue
                if self.objective[j] > 0:
                    entering = j
                    break
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best_ratio: Optional[Fraction] = None
            for i, row in enumerate(self.matrix):
                coeff = row[entering]
                if coeff > 0:
                    ratio = self.rhs[i] / coeff
                    better = best_ratio is None or ratio < best_ratio
                    tie_break = (ratio == best_ratio and leaving >= 0
                                 and self.basis[i] < self.basis[leaving])
                    if better or tie_break:
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)


def solve_lp(c: Sequence, a_ub: Sequence[Sequence], b_ub: Sequence,
             *, maximize: bool = True) -> LpResult:
    """Solve ``max (or min) c·x  s.t.  A_ub x ≤ b_ub, x ≥ 0`` exactly.

    All inputs are coerced to :class:`~fractions.Fraction`.  Returns an
    :class:`LpResult` whose status is one of ``optimal``, ``unbounded``,
    ``infeasible``.
    """
    n = len(c)
    m = len(a_ub)
    if len(b_ub) != m:
        raise LinearSystemError(f"{m} constraint rows but {len(b_ub)} right-hand sides")
    cost = [Fraction(value) for value in c]
    if not maximize:
        cost = [-value for value in cost]
    matrix = _to_fraction_matrix(a_ub, n)
    rhs = [Fraction(value) for value in b_ub]

    # Slack variables turn A x ≤ b into equalities; rows with negative rhs
    # are negated (making their slack coefficient -1) and get an artificial
    # variable so that phase 1 can start from an identity basis.
    total = n + m
    artificial_cols: list[int] = []
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(m):
        row = matrix[i] + [Fraction(0)] * m
        row[n + i] = Fraction(1)
        if rhs[i] < 0:
            row = [-value for value in row]
            rhs[i] = -rhs[i]
            artificial_cols.append(total)
            row.append(Fraction(1))
            basis.append(total)
            total += 1
        else:
            basis.append(n + i)
        rows.append(row)
    width = total
    for row in rows:
        row.extend([Fraction(0)] * (width - len(row)))

    phase1_pivots = 0
    if artificial_cols:
        phase1_obj = [Fraction(0)] * width
        for col in artificial_cols:
            phase1_obj[col] = Fraction(-1)
        tableau = _Tableau(rows, rhs, phase1_obj, basis)
        tableau.price_out()
        status = tableau.run()
        if status != OPTIMAL or tableau.obj_value != 0:
            return LpResult(INFEASIBLE, pivots=tableau.pivots)
        # Drive any artificial variable still basic (at value 0) out of the
        # basis when possible; a row with no eligible pivot is redundant.
        artificial = set(artificial_cols)
        for i, var in enumerate(tableau.basis):
            if var in artificial:
                for j in range(width):
                    if j not in artificial and tableau.matrix[i][j] != 0:
                        tableau.pivot(i, j)
                        break
        rows = tableau.matrix
        rhs = tableau.rhs
        basis = tableau.basis
        phase1_pivots = tableau.pivots
    else:
        artificial = set()

    phase2_obj = [Fraction(0)] * width
    for j in range(n):
        phase2_obj[j] = cost[j]
    tableau = _Tableau(rows, rhs, phase2_obj, basis)
    tableau.price_out()
    allowed = set(range(width)) - artificial
    status = tableau.run(allowed_cols=allowed)
    total_pivots = phase1_pivots + tableau.pivots
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, pivots=total_pivots)

    values = [Fraction(0)] * n
    for i, var in enumerate(tableau.basis):
        if var < n:
            values[var] = tableau.rhs[i]
    objective = tableau.obj_value if maximize else -tableau.obj_value
    return LpResult(OPTIMAL, objective, tuple(values), pivots=total_pivots)


def solve_sparse_lp(c: dict, rows: Sequence[dict], rhs: Sequence, n: int, *,
                    maximize: bool = True) -> LpResult:
    """:func:`repro.linear.sparse.solve_sparse_lp` on the dense core — the
    drop-in the parity tests patch into the ratio and minimization paths."""
    return solve_lp([c.get(j, 0) for j in range(n)],
                    [[row.get(j, 0) for j in range(n)] for row in rows],
                    rhs, maximize=maximize)


def solve_groups(groups, rows, metrics: Optional[dict[str, int]] = None
                 ) -> list[Fraction]:
    """The max-support LP over grouped columns (``groups`` and ``rows`` as
    :func:`repro.linear.backends.grouped_columns` builds them), solved by
    the dense core.  ``metrics`` (optional) receives ``lp.pivots``.
    """
    k = len(groups)
    width = 2 * k
    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    for row in rows:
        dense = [Fraction(0)] * width
        for g, coeff in row.items():
            dense[g] = coeff
        a_ub.append(dense)
        b_ub.append(Fraction(0))
    for g in range(k):
        dense = [Fraction(0)] * width
        dense[g] = Fraction(-1)
        dense[k + g] = Fraction(1)
        a_ub.append(dense)            # t_g - x_g ≤ 0
        b_ub.append(Fraction(0))
        dense = [Fraction(0)] * width
        dense[k + g] = Fraction(1)
        a_ub.append(dense)            # t_g ≤ 1
        b_ub.append(Fraction(1))
    objective = [Fraction(0)] * k + [Fraction(1)] * k
    result = solve_lp(objective, a_ub, b_ub, maximize=True)
    bump_metric(metrics, "lp.pivots", result.pivots)
    if result.status != OPTIMAL:
        raise LinearSystemError(
            f"max-support LP ended with status {result.status}; it is "
            "feasible at zero and bounded, this cannot happen")
    return list(result.solution[:k])


class DenseReference:
    """The dense simplex as an :class:`~repro.linear.backends.LpBackend`.

    Picklable and stateless, so it also travels to spawned batch workers
    inside an :class:`~repro.engine.config.EngineConfig`.
    """

    name = "dense-reference"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            arithmetic="exact-rational", sparse=False, closed_form=False,
            degeneracy="bland-anticycling")

    def describe(self) -> BackendDescription:
        return BackendDescription(
            name=self.name, aliases=(),
            summary="dense two-phase rational simplex (test reference)",
            capabilities=self.capabilities())

    def solve(self, system: PsiSystem, positive_indices: Sequence[int], *,
              merge_columns: bool = True) -> RoundSolution:
        groups, rows = grouped_columns(system, positive_indices, merge_columns)
        if not groups:
            return RoundSolution({}, frozenset(), "propagation")
        metrics: dict[str, int] = {}
        return _concentrated(groups, solve_groups(groups, rows, metrics),
                             self.name, metrics)
