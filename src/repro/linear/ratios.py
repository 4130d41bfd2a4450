"""Population-ratio analysis: what |C1| / |C2| can be across all models.

A CAR schema pins down surprisingly precise *global* population facts: in
every model of the cardinality chain ``L0 →(2,2)→ L1`` there are exactly
twice as many ``L1`` objects as ``L0`` objects; in Figure 2 every model has
at least as many courses as professors.  These facts live in the same
homogeneous cone ``Ψ_S`` the satisfiability check uses:

* restrict ``Ψ_S`` to the **supported** unknowns (every unknown of the
  restriction is positive in the maximal acceptable witness);
* normalize with ``Σ_{C̄ ∋ C2} Var(C̄) = 1`` (legal: the cone is
  scale-invariant, and ``C2`` is satisfiable);
* minimize / maximize ``Σ_{C̄ ∋ C1} Var(C̄)``.

The optima are the exact infimum/supremum of ``|C1| / |C2|`` over models
with ``C2`` nonempty.  *Why exactness despite acceptability being
non-convex*: blending any feasible point with the strictly-positive maximal
witness ``(1-ε)·x* + ε·w`` stays in the restricted cone, is strictly
positive — hence acceptable — and approaches the optimum as ``ε → 0``;
integer models approximate rationals by scaling (homogeneity).  So the LP
bounds are attained in the limit by genuine database states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..core.errors import LinearSystemError, ReasoningError
from .backends import grouped_columns
from .sparse import INFEASIBLE, UNBOUNDED, solve_sparse_lp
from .support import SupportResult

__all__ = ["RatioBounds", "population_ratio_bounds"]


@dataclass(frozen=True)
class RatioBounds:
    """The exact range of ``|numerator| / |denominator|`` over models.

    ``lower`` is the infimum; ``upper`` the supremum, None meaning the
    ratio is unbounded above.  Both are limits over legal database states
    with a nonempty denominator class.
    """

    numerator: str
    denominator: str
    lower: Fraction
    upper: Optional[Fraction]

    def fixed(self) -> Optional[Fraction]:
        """The ratio when the schema forces a single value, else None."""
        if self.upper is not None and self.lower == self.upper:
            return self.lower
        return None

    def __str__(self) -> str:
        upper = "∞" if self.upper is None else str(self.upper)
        return (f"|{self.numerator}| / |{self.denominator}| "
                f"∈ [{self.lower}, {upper}]")


def population_ratio_bounds(support: SupportResult, numerator: str,
                            denominator: str) -> RatioBounds:
    """Exact bounds on ``|numerator| / |denominator|`` across all models.

    ``support`` is the maximal acceptable support of the schema's ``Ψ_S``
    (``reasoner.support``).  Raises
    :class:`~repro.core.errors.ReasoningError` when the denominator class is
    unsatisfiable (the ratio is undefined in every model).
    """
    system = support.system
    columns = sorted(support.support)
    if not columns:
        raise ReasoningError("the schema has no populatable compound classes")

    schema = system.expansion.schema
    for name in (numerator, denominator):
        if name not in schema.class_symbols:
            raise ReasoningError(f"class {name!r} does not occur in the schema")

    # Merging interchangeable columns is valid here because the ratio
    # objective and the normalization row only weight compound-class
    # unknowns, which stay in singleton groups.
    groups, rows = grouped_columns(system, columns)

    def class_weights(name: str) -> dict[int, int]:
        weights = {}
        for g, members in enumerate(groups):
            inside = sum(
                1 for var in members
                if isinstance(system.unknowns[var], frozenset)
                and name in system.unknowns[var])
            if inside:
                weights[g] = inside
        return weights

    numerator_weights = class_weights(numerator)
    denominator_weights = class_weights(denominator)
    if not denominator_weights:
        raise ReasoningError(
            f"class {denominator!r} is unsatisfiable; the ratio is undefined")

    rhs = [Fraction(0)] * len(rows)
    # Normalization Σ denominator = 1 as two inequalities.
    rows.append(denominator_weights)
    rhs.append(Fraction(1))
    rows.append({g: -w for g, w in denominator_weights.items()})
    rhs.append(Fraction(-1))

    outcomes = {}
    for sense, maximize in (("max", True), ("min", False)):
        result = solve_sparse_lp(numerator_weights, rows, rhs, len(groups),
                                 maximize=maximize)
        if result.status == INFEASIBLE:
            raise LinearSystemError(
                "normalized system infeasible although the denominator is "
                "satisfiable; this cannot happen")
        outcomes[sense] = result

    lower = outcomes["min"].objective
    if outcomes["max"].status == UNBOUNDED:
        upper: Optional[Fraction] = None
    else:
        upper = outcomes["max"].objective
    return RatioBounds(numerator, denominator, lower, upper)
