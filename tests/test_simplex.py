"""Unit tests for the exact LP core behind :func:`repro.linear.solve_lp`
(the sparse fraction-free tableau), cross-checked against scipy and the
dense reference simplex."""

import random
from fractions import Fraction

import pytest

from repro.core.errors import LinearSystemError
from repro.linear import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

from . import dense_reference


class TestBasicSolves:
    def test_trivial_maximum(self):
        # max x s.t. x ≤ 5
        result = solve_lp([1], [[1]], [5])
        assert result.status == OPTIMAL
        assert result.objective == 5
        assert result.solution == (Fraction(5),)

    def test_two_variable_vertex(self):
        # max x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6  → vertex (8/5, 6/5).
        result = solve_lp([1, 1], [[1, 2], [3, 1]], [4, 6])
        assert result.status == OPTIMAL
        assert result.objective == Fraction(14, 5)
        assert result.solution == (Fraction(8, 5), Fraction(6, 5))

    def test_minimization(self):
        # min x + y s.t. -x - y ≤ -2 (i.e. x + y ≥ 2).
        result = solve_lp([1, 1], [[-1, -1]], [-2], maximize=False)
        assert result.status == OPTIMAL
        assert result.objective == 2

    def test_unbounded(self):
        result = solve_lp([1], [[-1]], [0])
        assert result.status == UNBOUNDED

    def test_infeasible(self):
        # x ≤ -1 with x ≥ 0.
        result = solve_lp([1], [[1]], [-1])
        assert result.status == INFEASIBLE

    def test_degenerate_zero_objective(self):
        result = solve_lp([0, 0], [[1, 1]], [3])
        assert result.status == OPTIMAL
        assert result.objective == 0

    def test_equality_via_two_inequalities(self):
        # x = 2y through x - 2y ≤ 0 and 2y - x ≤ 0, maximize x with x ≤ 10.
        result = solve_lp([1, 0], [[1, -2], [-1, 2], [1, 0]], [0, 0, 10])
        assert result.status == OPTIMAL
        assert result.solution[0] == 10
        assert result.solution[1] == 5

    def test_fractional_data(self):
        result = solve_lp([Fraction(1, 3)], [[Fraction(2, 7)]], [Fraction(1, 2)])
        assert result.status == OPTIMAL
        assert result.solution[0] == Fraction(7, 4)

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(LinearSystemError):
            solve_lp([1, 1], [[1]], [1])

    def test_rhs_length_mismatch_rejected(self):
        with pytest.raises(LinearSystemError):
            solve_lp([1], [[1]], [1, 2])

    def test_redundant_negative_rows(self):
        # x + y = 2 written three ways, two of them needing artificial
        # columns; one row ends redundant after the feasibility phase.
        rows = [[-1, -1], [-2, -2], [1, 1]]
        result = solve_lp([1, 0], rows, [-2, -4, 2], maximize=False)
        assert result.status == OPTIMAL
        assert result.objective == 0
        assert result.solution == (Fraction(0), Fraction(2))

    def test_infeasible_lower_bounds(self):
        # x ≥ 2 and y ≥ 2 but x + y ≤ 3.
        result = solve_lp([1, 1], [[-1, 0], [0, -1], [1, 1]], [-2, -2, 3])
        assert result.status == INFEASIBLE


class TestHomogeneousSystems:
    """The shape Ψ_S produces: A x ≤ 0, feasible at the origin."""

    def test_origin_always_feasible(self):
        result = solve_lp([0, 0], [[1, -1], [-1, 1]], [0, 0])
        assert result.status == OPTIMAL

    def test_ratio_conflict_forces_zero(self):
        # x = y and x = 3y (cone form) plus box x ≤ 1: only x = y = 0.
        rows = [[1, -1], [-1, 1], [1, -3], [-1, 3], [1, 0], [0, 1]]
        rhs = [0, 0, 0, 0, 1, 1]
        result = solve_lp([1, 1], rows, rhs)
        assert result.status == OPTIMAL
        assert result.objective == 0

    def test_consistent_ratio_scales(self):
        # x = 2y with x ≤ 1: optimum x = 1, y = 1/2.
        rows = [[1, -2], [-1, 2], [1, 0]]
        result = solve_lp([1, 1], rows, [0, 0, 1])
        assert result.status == OPTIMAL
        assert result.solution == (Fraction(1), Fraction(1, 2))


def random_bounded_lp(seed):
    """A small random LP, boxed to stay bounded; negative right-hand sides
    exercise the feasibility phase."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    c = [rng.randint(-4, 4) for _ in range(n)]
    a_ub = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    b_ub = [rng.randint(-2, 6) for _ in range(m)]
    for j in range(n):
        row = [0] * n
        row[j] = 1
        a_ub.append(row)
        b_ub.append(10)
    return c, a_ub, b_ub


class TestAgainstScipy:
    """Randomized differential test against scipy's HiGHS solver."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_bounded_lps(self, seed):
        scipy_linprog = pytest.importorskip("scipy.optimize").linprog
        c, a_ub, b_ub = random_bounded_lp(seed)
        n = len(c)
        exact = solve_lp(c, a_ub, b_ub, maximize=True)
        reference = scipy_linprog([-v for v in c], A_ub=a_ub, b_ub=b_ub,
                                  bounds=[(0, None)] * n, method="highs")
        if exact.status == INFEASIBLE:
            assert not reference.success
        else:
            assert exact.status == OPTIMAL
            assert reference.success
            assert abs(float(exact.objective) + reference.fun) < 1e-6


class TestAgainstDenseReference:
    """The same random LPs, checked exactly against the dense two-phase
    tableau: equal status and optimum, and a feasible optimal point."""

    @pytest.mark.parametrize("maximize", (True, False))
    @pytest.mark.parametrize("seed", range(25))
    def test_random_bounded_lps(self, seed, maximize):
        c, a_ub, b_ub = random_bounded_lp(seed)
        exact = solve_lp(c, a_ub, b_ub, maximize=maximize)
        dense = dense_reference.solve_lp(c, a_ub, b_ub, maximize=maximize)
        assert exact.status == dense.status
        assert exact.objective == dense.objective
        if exact.status == OPTIMAL:
            x = exact.solution
            assert all(value >= 0 for value in x)
            for row, bound in zip(a_ub, b_ub):
                assert sum(a * v for a, v in zip(row, x)) <= bound
            assert sum(a * v for a, v in zip(c, x)) == exact.objective
