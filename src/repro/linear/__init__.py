"""Phase 2 of the reasoning method: linear disequations and their solutions.

The package splits into the *bookkeeping* layer (``support`` — propagation
rules and the fixpoint loop; ``system`` — building ``Ψ_S``) and the
*arithmetic core* (``backends`` — pluggable LP backends selected by name,
each carrying a capability contract; ``sparse`` — the one exact LP core, a
sparse fraction-free simplex, plus the §4.4 closed form).
"""

from .backends import (
    AutoBackend,
    BackendCapabilities,
    BackendDescription,
    FloatFallbackBackend,
    LpBackend,
    RoundSolution,
    SparseExactBackend,
    available_backends,
    backend_capabilities,
    describe_backend,
    get_backend,
    register_backend,
)
from .ratios import RatioBounds, population_ratio_bounds
from .sparse import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    SparseTableau,
    hierarchy_witness,
    solve_lp,
    solve_max_support_sparse,
)
from .support import PinEvent, SupportResult, acceptable_support
from .system import Constraint, PsiSystem, Unknown, bound_entries, build_system

__all__ = [
    "AutoBackend", "BackendCapabilities", "BackendDescription",
    "FloatFallbackBackend", "LpBackend", "RoundSolution",
    "SparseExactBackend", "available_backends", "backend_capabilities",
    "describe_backend", "get_backend", "register_backend",
    "RatioBounds", "population_ratio_bounds",
    "INFEASIBLE", "OPTIMAL", "UNBOUNDED", "LpResult", "solve_lp",
    "SparseTableau", "hierarchy_witness", "solve_max_support_sparse",
    "PinEvent", "SupportResult", "acceptable_support",
    "Constraint", "PsiSystem", "Unknown", "bound_entries", "build_system",
]
