"""The exact LP core: a sparse fraction-free simplex, plus the §4.4 closed form.

Phase 2 of the paper's method reduces class satisfiability to the existence
of particular solutions of a homogeneous system of linear disequations
(Theorem 3.3), decided "using linear programming techniques" (Theorem 4.3).
Floating-point LP cannot be trusted to distinguish ``x > 0`` from ``x = 0``
— the very distinction the method hinges on — so every exact solve in the
package runs here, in integer arithmetic, on problems of the form::

    maximize    c · x
    subject to  A x ≤ b,   x ≥ 0

``Ψ_S`` is extremely sparse: acceptability couples each compound
attribute/relation only to its endpoint classes, and every ``Natt``/``Nrel``
entry touches one compound-class column plus its summands.  So the tableau
is kept **sparse and integer**:

* each row is a ``{column: int numerator}`` dict with one positive integer
  denominator shared by the whole row (the right-hand side shares it too);
* a column index (``column → set of row ids``) lets a pivot touch only the
  rows actually containing the entering column;
* pivoting is fraction-free in the Bareiss style — rows update by integer
  cross-multiplication ``row_i·p - a_ic·row_r`` followed by **one** gcd
  normalization per updated row, instead of a gcd per arithmetic operation.

Bland's rule guarantees termination.  Rows with a negative right-hand side
need the textbook feasibility phase of two-phase simplex (unrelated to the
paper's Phase 1): they are negated and get an artificial column, which the
feasibility phase drives to zero and then drops.  The max-support LP
(maximize ``Σ t_g`` s.t. ``Ψ rows``, ``t_g ≤ x_g``, ``t_g ≤ 1``) has a
nonnegative right-hand side throughout, so its slack basis is primal
feasible from the start: **no artificial columns**, a single run of primal
simplex.  The ratio bounds of :mod:`repro.linear.ratios` and the witness
minimization of :mod:`repro.linear.support` (lower bounds ``x ≥ 1``) are
the callers that need the feasibility phase.

The second short-circuit is Section 4.4: for generalization hierarchies
the support question has a closed-form answer.  After the propagation
rules reach their fixpoint, every surviving unknown is supportable, and
:func:`hierarchy_witness` *constructs* the certifying solution directly
(classes at 1, each cardinality entry's live summands sharing the entry's
feasible mass, a summand of several entries taking the least share) and
re-verifies it against every disequation exactly.  The exact backends try
it on every round, whatever the schema's shape: soundness rests on the
verification, not on any hierarchy detection, so a system the
construction does not fit simply goes to the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Optional, Sequence

from ..core.budget import current_budget
from ..core.cardinality import INFINITY
from ..core.errors import LinearSystemError
from .system import PsiSystem, bound_entries

__all__ = [
    "LpResult", "OPTIMAL", "UNBOUNDED", "INFEASIBLE", "solve_lp",
    "solve_sparse_lp", "SparseTableau", "solve_max_support_sparse",
    "hierarchy_witness",
]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpResult:
    """Outcome of an LP solve.

    ``solution`` and ``objective`` are exact rationals, present only for
    ``status == OPTIMAL``.  ``pivots`` counts the tableau pivots performed,
    feasibility phase included — the arithmetic work metric the
    observability bus reports as ``lp.pivots``.
    """

    status: str
    objective: Optional[Fraction] = None
    solution: Optional[tuple[Fraction, ...]] = None
    pivots: int = 0


class SparseTableau:
    """A sparse, fraction-free simplex tableau for ``max c·x, Ax ≤ b, x ≥ 0``.

    ``rows``/``rhs``/``objective`` are integer; slack columns
    ``n_structural + i`` are appended internally, and artificial columns
    after those for rows with ``b_i < 0``.  Row ``i`` represents the
    rational row ``num[i][j] / den[i]`` with ``den[i] > 0``; ``rhs[i]``
    shares the denominator, which cancels out of both the ratio test
    (``rhs[i]/num[i][c]``) and the basic-variable readout — the simplex
    never builds a :class:`~fractions.Fraction` until the final solution.
    """

    def __init__(self, rows: Sequence[dict[int, int]], rhs: Sequence[int],
                 objective: dict[int, int], n_structural: int):
        m = len(rows)
        if len(rhs) != m:
            raise LinearSystemError(
                f"{m} constraint rows but {len(rhs)} right-hand sides")
        self.n_structural = n_structural
        self.num: list[dict[int, int]] = []
        self.den: list[int] = [1] * m
        self.rhs: list[int] = list(rhs)
        self.basis: list[int] = []
        self.cols: dict[int, set[int]] = {}
        #: Columns from here on are artificial (feasibility phase only).
        self.first_artificial = n_structural + m
        artificial = self.first_artificial
        for i, row in enumerate(rows):
            stored = {j: v for j, v in row.items() if v}
            stored[n_structural + i] = 1  # the slack column
            if rhs[i] < 0:
                # -row·x - s = -b > 0, made basic by an artificial column.
                stored = {j: -v for j, v in stored.items()}
                stored[artificial] = 1
                self.rhs[i] = -rhs[i]
                self.basis.append(artificial)
                artificial += 1
            else:
                self.basis.append(n_structural + i)
            self.num.append(stored)
            for j in stored:
                self.cols.setdefault(j, set()).add(i)
        self._objective = {j: v for j, v in objective.items() if v}
        # Reduced costs, as obj_num / obj_den.  With artificial columns the
        # feasibility phase maximizes -Σ artificials first.
        self.obj_num: dict[int, int] = (
            dict.fromkeys(range(self.first_artificial, artificial), -1)
            if artificial > self.first_artificial else dict(self._objective))
        self.obj_den: int = 1
        self._price_out()
        self.pivots = 0

    # ------------------------------------------------------------------
    def _normalize(self, row: dict[int, int], rhs: int,
                   den: int) -> tuple[int, int]:
        """Fix the denominator sign and divide the whole row by its gcd.

        One normalization per row per pivot keeps entries at the size of
        (scaled) minors — the fraction-free analogue of Bareiss division —
        without paying a gcd on every multiply.
        """
        if den < 0:
            den, rhs = -den, -rhs
            for j in row:
                row[j] = -row[j]
        g = gcd(den, rhs)
        for value in row.values():
            if g == 1:
                break
            g = gcd(g, value)
        if g > 1:
            den //= g
            rhs //= g
            for j in row:
                row[j] //= g
        return rhs, den

    def pivot(self, r: int, c: int) -> None:
        prc = self.num[r][c]
        row_r = self.num[r]
        rhs_r = self.rhs[r]
        touched = self.cols.get(c, set())
        for i in list(touched):
            if i == r:
                continue
            row_i = self.num[i]
            nic = row_i[c]
            # row_i ← row_i·prc − nic·row_r  (den_i ← den_i·prc), touching
            # only row_i's nonzeros plus row_r's support.
            if prc != 1:
                for j in row_i:
                    row_i[j] *= prc
            for j, vrj in row_r.items():
                delta = nic * vrj
                cur = row_i.get(j)
                if cur is None:
                    row_i[j] = -delta
                    self.cols.setdefault(j, set()).add(i)
                else:
                    new = cur - delta
                    if new:
                        row_i[j] = new
                    else:
                        del row_i[j]
                        self.cols[j].discard(i)
            new_rhs = self.rhs[i] * prc - nic * rhs_r
            new_den = self.den[i] * prc
            self.rhs[i], self.den[i] = self._normalize(row_i, new_rhs, new_den)
        if self.obj_num.get(c):
            self._eliminate_from_objective(r, c)
        self.basis[r] = c
        self.pivots += 1

    def _price_out(self) -> None:
        """Zero the reduced costs of the basic columns."""
        for r, var in enumerate(self.basis):
            if self.obj_num.get(var):
                self._eliminate_from_objective(r, var)

    def _eliminate_from_objective(self, r: int, c: int) -> None:
        """Zero the reduced cost of column ``c`` using row ``r``."""
        prc = self.num[r][c]
        oc = self.obj_num[c]
        obj = self.obj_num
        if prc != 1:
            for j in obj:
                obj[j] *= prc
        for j, vrj in self.num[r].items():
            delta = oc * vrj
            cur = obj.get(j)
            if cur is None:
                obj[j] = -delta
            else:
                new = cur - delta
                if new:
                    obj[j] = new
                else:
                    del obj[j]
        new_den = self.obj_den * prc
        if new_den < 0:
            new_den = -new_den
            for j in obj:
                obj[j] = -obj[j]
        g = new_den
        for value in obj.values():
            if g == 1:
                break
            g = gcd(g, value)
        if g > 1:
            new_den //= g
            for j in obj:
                obj[j] //= g
        self.obj_den = new_den

    def run(self) -> str:
        """Primal simplex with Bland's rule; returns OPTIMAL or UNBOUNDED.

        Entering: the smallest column with positive reduced cost (the sign
        of the integer numerator — ``obj_den > 0`` is an invariant).
        Leaving: the minimum-ratio row, ties broken toward the smallest
        basic variable; ratios compare by integer cross-multiplication.

        The entering column comes from a min-heap of columns whose reduced
        cost was positive when pushed; entries gone nonpositive are popped
        lazily.  A pivot rescales the objective row by the (positive) pivot
        element, which keeps every sign, and subtracts a multiple of the
        pivot row, so only the pivot row's columns can turn positive: they
        alone are pushed again.  The heap thus yields exactly the column a
        full scan of the reduced costs would, pivot for pivot.

        Each iteration ticks the ambient
        :class:`~repro.core.budget.Budget`, so a deadline or step bound
        interrupts long pivot sequences with
        :class:`~repro.core.errors.BudgetExceeded`.
        """
        tick = current_budget().tick
        obj = self.obj_num
        heap = [j for j, v in obj.items() if v > 0]
        heapify(heap)
        queued = set(heap)
        while True:
            tick()
            while heap and obj.get(heap[0], 0) <= 0:
                queued.discard(heappop(heap))
            if not heap:
                return OPTIMAL
            entering = heap[0]
            leaving = self.leaving_row(entering)
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)
            for j in self.num[leaving]:
                if j not in queued and obj.get(j, 0) > 0:
                    heappush(heap, j)
                    queued.add(j)

    def leaving_row(self, entering: int) -> int:
        """The minimum-ratio row for ``entering``, ties broken toward the
        smallest basic variable; -1 when no row bounds the column."""
        leaving = -1
        best_num = best_den = 0  # best ratio = best_num / best_den
        for i in self.cols.get(entering, ()):  # only rows with the column
            coeff = self.num[i][entering]
            if coeff <= 0:
                continue
            # ratio rhs[i]/coeff vs best: cross-multiply (both dens > 0)
            if leaving < 0:
                better = True
            else:
                lhs = self.rhs[i] * best_den
                rhs = best_num * coeff
                better = lhs < rhs or (lhs == rhs
                                       and self.basis[i]
                                       < self.basis[leaving])
            if better:
                leaving, best_num, best_den = i, self.rhs[i], coeff
        return leaving

    def feasible(self) -> bool:
        """The feasibility phase: False when ``Ax ≤ b, x ≥ 0`` is empty.

        Without artificial columns (``b ≥ 0``) this returns at once.
        Otherwise it maximizes ``-Σ artificials``; a positive artificial
        left at the optimum proves infeasibility.  Artificials still basic
        at zero are pivoted out (a row with no other entry is redundant and
        goes), the artificial columns are dropped, and the true objective
        is priced out against the feasible basis.
        """
        first = self.first_artificial
        if not any(var >= first for var in self.basis):
            return True
        self.run()  # bounded: the objective is at most zero
        if any(var >= first and self.rhs[i]
               for i, var in enumerate(self.basis)):
            return False
        for r, var in enumerate(self.basis):
            if var < first:
                continue
            col = min((j for j in self.num[r] if j < first), default=-1)
            if col < 0:
                continue
            if self.num[r][col] < 0:  # rhs is zero: negating keeps it so
                self.num[r] = {j: -v for j, v in self.num[r].items()}
            self.pivot(r, col)
        keep = [i for i, var in enumerate(self.basis) if var < first]
        self.num = [{j: v for j, v in self.num[i].items() if j < first}
                    for i in keep]
        self.den = [self.den[i] for i in keep]
        self.rhs = [self.rhs[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.cols = {}
        for i, row in enumerate(self.num):
            for j in row:
                self.cols.setdefault(j, set()).add(i)
        self.obj_num = dict(self._objective)
        self.obj_den = 1
        self._price_out()
        return True

    def solution(self) -> list[Fraction]:
        """Structural-variable values at the current (optimal) basis."""
        values = [Fraction(0)] * self.n_structural
        for i, var in enumerate(self.basis):
            if var < self.n_structural:
                values[var] = Fraction(self.rhs[i], self.num[i][var])
        return values


def _integer_row(row: dict[int, Fraction], rhs: Fraction
                 ) -> tuple[dict[int, int], int]:
    """Scale one rational row and its right-hand side to integers."""
    scale = lcm(rhs.denominator,
                *(value.denominator for value in row.values()))
    return {j: int(value * scale) for j, value in row.items()}, int(rhs * scale)


def solve_sparse_lp(c: dict[int, Fraction],
                    rows: Sequence[dict[int, Fraction]],
                    rhs: Sequence[Fraction], n: int, *,
                    maximize: bool = True) -> LpResult:
    """:func:`solve_lp` for rows given as sparse ``{column: value}`` dicts
    over ``n`` columns (values anything :class:`~fractions.Fraction`
    accepts)."""
    if len(rhs) != len(rows):
        raise LinearSystemError(
            f"{len(rows)} constraint rows but {len(rhs)} right-hand sides")
    int_rows: list[dict[int, int]] = []
    int_rhs: list[int] = []
    for row, b in zip(rows, rhs):
        int_row, int_b = _integer_row(
            {j: Fraction(value) for j, value in row.items() if value},
            Fraction(b))
        int_rows.append(int_row)
        int_rhs.append(int_b)
    cost = {j: Fraction(value) for j, value in c.items() if value}
    objective, _ = _integer_row(cost, Fraction(0))
    if not maximize:
        objective = {j: -v for j, v in objective.items()}
    tableau = SparseTableau(int_rows, int_rhs, objective, n)
    if not tableau.feasible():
        return LpResult(INFEASIBLE, pivots=tableau.pivots)
    if tableau.run() == UNBOUNDED:
        return LpResult(UNBOUNDED, pivots=tableau.pivots)
    values = tableau.solution()
    value = sum((coeff * values[j] for j, coeff in cost.items()), Fraction(0))
    return LpResult(OPTIMAL, value, tuple(values), pivots=tableau.pivots)


def solve_lp(c: Sequence, a_ub: Sequence[Sequence], b_ub: Sequence,
             *, maximize: bool = True) -> LpResult:
    """Solve ``max (or min) c·x  s.t.  A_ub x ≤ b_ub, x ≥ 0`` exactly.

    All inputs are coerced to :class:`~fractions.Fraction`.  Returns an
    :class:`LpResult` whose status is one of ``optimal``, ``unbounded``,
    ``infeasible``.
    """
    n = len(c)
    rows = []
    for row in a_ub:
        if len(row) != n:
            raise LinearSystemError(
                f"constraint row of width {len(row)}, expected {n}")
        rows.append(dict(enumerate(row)))
    return solve_sparse_lp(dict(enumerate(c)), rows, b_ub, n,
                           maximize=maximize)


def solve_max_support_sparse(groups, rows) -> tuple[list[Fraction], int]:
    """The max-support LP over grouped columns.

    ``groups`` come from :func:`~repro.linear.backends.grouped_columns`,
    ``rows`` are sparse ``{group: int}`` dicts (``Ψ_S`` is integer).
    Maximizes ``Σ t_g`` subject to the rows, ``t_g ≤ x_g`` and
    ``t_g ≤ 1``: every right-hand side is nonnegative, so this is a single
    run of primal simplex with no feasibility phase.  Returns ``(group
    x-values, pivot count)``.
    """
    k = len(groups)
    int_rows = list(rows)
    rhs = [0] * len(int_rows)
    for g in range(k):
        int_rows.append({g: -1, k + g: 1})   # t_g - x_g ≤ 0
        rhs.append(0)
        int_rows.append({k + g: 1})          # t_g ≤ 1
        rhs.append(1)
    objective = {k + g: 1 for g in range(k)}
    tableau = SparseTableau(int_rows, rhs, objective, 2 * k)
    if tableau.run() != OPTIMAL:
        raise LinearSystemError(
            "max-support LP is unbounded; it is bounded by construction "
            "(t ≤ 1), this cannot happen")
    return tableau.solution()[:k], tableau.pivots


# ----------------------------------------------------------------------
# Section 4.4: the hierarchy closed form
# ----------------------------------------------------------------------
class AcceptableIndices(list):
    """Candidate indices whose caller vouches that they are closed under
    acceptability: every endpoint of a member is a member.

    :func:`~repro.linear.support.acceptable_support` passes each round's
    candidates as this type right after its propagation fixpoint, which
    establishes exactly that, and :func:`hierarchy_witness` then skips its
    own check.  It is a ``list``, so backends that take the documented
    ``Sequence[int]`` see no difference; a derived sequence (a slice, a
    filtered copy) is a plain ``list`` and carries no vouch."""


def hierarchy_witness(system: PsiSystem,
                      active: Sequence[int]) -> Optional[dict[int, Fraction]]:
    """Construct-and-verify the §4.4 closed-form answer.

    For a generalization hierarchy whose propagation fixpoint left
    ``active`` alive, *every* active unknown is supportable, and a witness
    is directly constructible: each compound class counts 1 object, and the
    live summands of each ``Natt``/``Nrel`` entry share the entry's
    feasible mass (the upper bound when finite, else ``max(lower, 1)``)
    equally.  A summand that sits in several bound entries — a compound
    attribute under both its attribute and the inverse, a compound
    relation under each of its roles — takes the least of those entries'
    shares, which keeps every upper row and leaves the lower rows to the
    check; it passes when the coupled populations may be equal.  The exact
    backends call it on every round with candidates, before the simplex.

    Returns the witness only after **exact verification** against every
    disequation (inactive unknowns at zero) and the acceptability condition,
    so a ``None`` result (construction or verification failed) simply sends
    the caller to the ordinary LP — the closed form can never change a
    verdict, only skip the solver.  The verification runs in integers, on
    the witness scaled by the lcm of the live-summand counts (every share
    ``mass / count`` becomes whole); ``Ψ_S`` is homogeneous, so scaling
    keeps every row's sign.  Acceptability is checked here unless
    ``active`` is an :class:`AcceptableIndices`, whose caller has already
    established it.
    """
    active_set = set(active)
    if not isinstance(active, AcceptableIndices):
        for index in active_set:
            if any(endpoint not in active_set
                   for endpoint in system.endpoints_of(index)):
                return None  # acceptability not yet propagated; let the LP pin
    shares: list[tuple[tuple[int, ...], int]] = []  # (live summands, mass)
    assigned: set[int] = set()
    coupled = False
    for class_index, summands, card, _origin in bound_entries(system):
        live = tuple(s for s in summands if s in active_set)
        if not live:
            # The lower row needs live partners when the class is active —
            # the propagation rules pin such classes before we get here.
            if class_index in active_set and card.lower >= 1:
                return None
            continue
        if class_index not in active_set:
            if card.upper is not INFINITY:
                return None  # summands should have been pinned already
            continue  # only ``lower·0 ≤ Σ``: vacuous for positive summands
        if card.is_empty():
            return None
        mass = card.upper if card.upper is not INFINITY else max(card.lower, 1)
        if mass <= 0:
            return None
        if not coupled and not assigned.isdisjoint(live):
            coupled = True
        assigned.update(live)
        shares.append((live, mass))
    # The safety net making the closed form unconditionally sound: every
    # disequation re-checked exactly, like any other backend certificate.
    scale = lcm(*(len(live) for live, _mass in shares))
    scaled_shares = [(live, mass * scale // len(live)) for live, mass in shares]
    if coupled:
        # Largest share first, so each shared summand ends on its least.
        scaled_shares.sort(key=lambda item: item[1], reverse=True)
    scaled = [0] * system.n_unknowns()
    for index in active_set:
        scaled[index] = scale  # classes and unconstrained compounds: 1
    for live, share in scaled_shares:
        for s in live:
            scaled[s] = share
    for constraint in system.constraints:
        total = 0
        for var, coeff in constraint.coefficients:
            total += coeff * scaled[var]
        if total > 0:
            return None
    values = dict.fromkeys(active_set, Fraction(1))
    for live, share in scaled_shares:
        value = Fraction(share, scale)
        for s in live:
            values[s] = value
    return values
