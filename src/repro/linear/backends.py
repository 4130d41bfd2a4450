"""Pluggable LP backends — the arithmetic core of the support computation.

The fixpoint loop of :func:`repro.linear.support.acceptable_support` is pure
bookkeeping (propagation rules, pin log, iteration); what distinguishes a
fast deployment from an authoritative one is the *arithmetic core* that
answers each max-support round.  This module separates the two: a backend is
any object satisfying the :class:`LpBackend` protocol —

    ``solve(system, positive_indices, *, merge_columns=True) -> RoundSolution``

— and backends are registered by name so callers (``acceptable_support``,
:class:`~repro.engine.config.EngineConfig`, the CLI ``--backend`` flag)
select one without importing its implementation.

Registered backends:

* ``"exact-sparse"`` — the sparse fraction-free (integer-preserving)
  simplex of :mod:`repro.linear.sparse`, the package's one exact LP core.
  Authoritative: every value is an exact rational, so ``x > 0`` vs
  ``x = 0`` — the distinction Theorem 3.3 hinges on — is decided without
  numerical doubt.  It exploits that ``Ψ_S`` couples each compound
  attribute/relation only to its endpoint classes and that the max-support
  LP is slack-basis feasible.  Every round first tries the §4.4 closed
  form (construct a witness, verify it exactly); a round it certifies
  takes zero pivots.
* ``"float-fallback"`` — tries ``scipy``'s HiGHS solver in floating point
  first, snaps the result to small rationals, and re-verifies every
  disequation exactly.  On degeneracy (values too close to zero to
  classify), verification failure, or an unavailable/failed float solve it
  falls back to the sparse exact core, so its verdicts are always
  identical to ``"exact-sparse"`` — a property the differential test suite
  pins.
* ``"auto"`` — the §4.4 closed form first, like ``"exact-sparse"``; then
  the sparse exact core up to :data:`SPARSE_BACKEND_LIMIT` LP columns,
  ``"float-fallback"`` beyond.  The limit sits at the measured sparse/float
  crossover (see :data:`SPARSE_BACKEND_LIMIT`): the float-first core,
  exact verification included, wins 5-45x on larger systems, so the cutoff
  is load-bearing, not vestigial.

**Capability contract.**  Every registered backend also answers
``capabilities()`` (a :class:`BackendCapabilities`: arithmetic kind,
sparsity, closed-form support, degeneracy handling) and ``describe()`` (a
:class:`BackendDescription` adding name, aliases, and a one-line summary).
Third-party backends may omit them — :func:`backend_capabilities` and
:func:`describe_backend` resolve conservative defaults.  The closed form
is each backend's own first step, not a hint from the support loop, so a
foreign backend is called on every round that has candidates.

**Backend selection.**  :func:`get_backend` accepts a registered name
(``"exact-sparse"``) or any object implementing the protocol; both forms
are valid wherever a backend is configured (``EngineConfig.lp_backend``,
``acceptable_support(backend=...)``; the CLI ``--backend`` takes names).

All backends return the same :class:`RoundSolution` shape, and because the
maximal acceptable support is *unique* (solutions of the homogeneous system
are closed under addition), any sound backend must produce the same
``supported`` set — only witness values and wall-clock may differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Protocol, Sequence, runtime_checkable

from ..core.errors import LinearSystemError
from .sparse import hierarchy_witness, solve_max_support_sparse
from .system import PsiSystem

__all__ = [
    "LpBackend", "RoundSolution", "BackendCapabilities",
    "BackendDescription", "backend_capabilities", "describe_backend",
    "register_backend", "get_backend", "available_backends",
    "SparseExactBackend", "FloatFallbackBackend",
    "AutoBackend", "EXACT_BACKEND_LIMIT", "SPARSE_BACKEND_LIMIT",
    "METRIC_KEYS", "bump_metric",
]

#: Column-count threshold below which an exact re-solve is attempted for the
#: float path's witness repair.
EXACT_BACKEND_LIMIT = 60

#: Column-count threshold below which ``"auto"`` stays with the sparse
#: exact core; beyond it the float-first path (still exactly verified)
#: takes over.
#:
#: The value is the *measured* crossover, not a guess.  On the ratio-
#: cluster sweep (the Theorem 4.3 workload scaled up) the two cores are
#: within ~2.5x of each other up to ~400 columns (both under 0.15 s);
#: from ~600 columns the float-first core wins 4.8x, growing to 10-12x
#: at ~2,000 columns and ~45x on a 14,763-column wide-attribute system
#: (89 s sparse vs 2 s float).  Below the crossover the sparse core is
#: preferred because it never pays the multi-second cold ``scipy``
#: import and needs no optional dependency at all.
SPARSE_BACKEND_LIMIT = 400

#: The documented :attr:`RoundSolution.metrics` key schema.  Every counter a
#: backend emits must be one of these (``bump_metric`` enforces it); the
#: support loop forwards them verbatim to the observability bus, where
#: ``lp.rounds`` and the ``support.pins_*`` tallies join them.
#:
#: * ``lp.sparse_solves`` / ``lp.float_solves`` — solver invocations by
#:   arithmetic core (sparse exact, HiGHS float);
#: * ``lp.pivots`` — simplex pivots;
#: * ``lp.hierarchy_closed_form`` — rounds answered by the §4.4 closed
#:   form, no solver invoked;
#: * ``lp.degenerate_detections`` — float solutions inside the ambiguity
#:   band, refused;
#: * ``lp.float_exact_fallbacks`` — rounds the float path handed to the
#:   exact core;
#: * ``lp.rationalize_repairs`` — float witnesses repaired by a restricted
#:   exact re-solve.
METRIC_KEYS = frozenset({
    "lp.sparse_solves",
    "lp.float_solves",
    "lp.pivots",
    "lp.hierarchy_closed_form",
    "lp.degenerate_detections",
    "lp.float_exact_fallbacks",
    "lp.rationalize_repairs",
})


def bump_metric(metrics: Optional[dict[str, int]], name: str,
                amount: int = 1) -> None:
    """Add ``amount`` to a :data:`METRIC_KEYS` counter (schema-checked)."""
    if name not in METRIC_KEYS:
        raise LinearSystemError(
            f"unknown solver metric {name!r}; the documented keys are: "
            f"{', '.join(sorted(METRIC_KEYS))}")
    if metrics is not None and amount:
        metrics[name] = metrics.get(name, 0) + amount


@dataclass(frozen=True)
class RoundSolution:
    """Outcome of one max-support LP round.

    ``values`` maps each candidate unknown to its rational witness value
    (concentrated on one representative per interchangeable group);
    ``supported`` holds the unknowns that can be positive; ``backend_used``
    names the arithmetic core that actually produced the numbers
    (``"exact-sparse"``, ``"float"``, ``"closed-form"`` for a
    §4.4 answer, or ``"propagation"`` when no LP was needed).  ``metrics``
    carries the round's arithmetic-work counters, drawn from the documented
    :data:`METRIC_KEYS` schema, which
    :func:`repro.linear.support.acceptable_support` aggregates onto the
    observability bus.
    """

    values: dict[int, Fraction]
    supported: frozenset[int]
    backend_used: str
    metrics: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BackendCapabilities:
    """What an LP backend can do — the introspection half of the contract.

    ``arithmetic`` is ``"exact-rational"`` (Fraction throughout),
    ``"float-first"`` (float solve, exactly re-verified), or ``"hybrid"``
    (routes between cores); ``sparse`` — whether the core exploits the
    sparsity of ``Ψ_S`` rather than densifying it; ``closed_form`` —
    whether the backend tries the §4.4 certificate before its solver on
    every round; ``degeneracy`` names the anti-degeneracy mechanism
    (``"bland-anticycling"``, ``"ambiguity-band-exact-fallback"``, …).
    """

    arithmetic: str
    sparse: bool
    closed_form: bool
    degeneracy: str

    def as_dict(self) -> dict:
        return {"arithmetic": self.arithmetic, "sparse": self.sparse,
                "closed_form": self.closed_form,
                "degeneracy": self.degeneracy}


@dataclass(frozen=True)
class BackendDescription:
    """One registry entry, described: what :func:`available_backends`
    returns instead of bare alias strings."""

    name: str
    aliases: tuple[str, ...]
    summary: str
    capabilities: BackendCapabilities

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "aliases": list(self.aliases),
            "summary": self.summary,
            "capabilities": self.capabilities.as_dict(),
        }


#: Conservative capabilities assumed for backends that do not implement
#: ``capabilities()`` (third-party protocol objects): no claims made.
DEFAULT_CAPABILITIES = BackendCapabilities(
    arithmetic="unspecified", sparse=False, closed_form=False,
    degeneracy="unspecified")


def backend_capabilities(backend: "LpBackend") -> BackendCapabilities:
    """The backend's declared capabilities, or the conservative default."""
    probe = getattr(backend, "capabilities", None)
    return probe() if callable(probe) else DEFAULT_CAPABILITIES


def describe_backend(backend: "LpBackend") -> BackendDescription:
    """The backend's self-description, synthesized when not implemented."""
    probe = getattr(backend, "describe", None)
    if callable(probe):
        return probe()
    return BackendDescription(
        name=backend.name, aliases=(), summary=type(backend).__name__,
        capabilities=backend_capabilities(backend))


@runtime_checkable
class LpBackend(Protocol):
    """The protocol every LP backend implements.

    One call answers one max-support round: given ``Ψ_S`` and the indices
    still considered positive candidates, maximize ``Σ t_i`` subject to the
    system, ``t_i ≤ x_i`` and ``t_i ≤ 1``, and report which candidates the
    optimum keeps positive.  Implementations must be *sound and complete*
    for the support question — the unique-maximal-support argument then
    guarantees backend-independent verdicts.

    Backends additionally carrying the capability contract implement
    ``capabilities() -> BackendCapabilities`` and ``describe() ->
    BackendDescription`` (resolved with conservative defaults by
    :func:`backend_capabilities` / :func:`describe_backend` when absent).
    """

    name: str

    def solve(self, system: PsiSystem, positive_indices: Sequence[int], *,
              merge_columns: bool = True) -> RoundSolution:
        """Solve one round over the active unknowns."""
        ...


# ----------------------------------------------------------------------
# Shared grouping: interchangeable columns collapse into one LP variable
# ----------------------------------------------------------------------
def grouped_columns(system: PsiSystem, active: Sequence[int],
                    merge_columns: bool = True):
    """Group interchangeable unknowns (identical constraint columns).

    Returns ``(groups, rows)``: ``groups`` is a list of variable-index
    tuples; ``rows`` a list of ``{group_index: coefficient}`` dicts, one per
    constraint that still touches an active unknown, with the system's
    integer coefficients.  With ``merge_columns=False`` every unknown stays
    in its own group (the ablation baseline).
    """
    active_set = set(active)
    signatures: dict[int, list[tuple[int, int]]] = {v: [] for v in active}
    live_rows = 0
    raw_rows: list[dict[int, int]] = []
    for constraint in system.constraints:
        touched = {var: coeff for var, coeff in constraint.coefficients
                   if var in active_set}
        if not touched:
            continue
        row_index = live_rows
        live_rows += 1
        raw_rows.append(touched)
        for var, coeff in touched.items():
            signatures[var].append((row_index, coeff))

    groups_by_signature: dict[tuple, list[int]] = {}
    classes = system.class_unknown_indices()
    for var in active:
        if not merge_columns or var in classes:
            # Compound-class unknowns stay singleton: the stored witness
            # concentrates each group's value on one representative, and
            # model synthesis needs every supported compound class to carry
            # a positive object count.
            key = ("class", var)
        else:
            key = tuple(signatures[var])
        groups_by_signature.setdefault(key, []).append(var)
    groups = [tuple(members) for members in groups_by_signature.values()]
    group_of = {var: g for g, members in enumerate(groups) for var in members}

    rows: list[dict[int, int]] = []
    for touched in raw_rows:
        row: dict[int, int] = {}
        for var, coeff in touched.items():
            # Identical columns by construction: the group coefficient is the
            # (shared) member coefficient, and the group variable stands for
            # the member sum.
            row[group_of[var]] = coeff
        rows.append(row)
    return groups, rows


def _concentrated(groups, values, backend_used: str,
                  metrics: Optional[dict[str, int]] = None) -> RoundSolution:
    """Turn group values into a per-unknown witness and support set.

    Support is a *group* property (identical columns are interchangeable):
    every member of a positive group can be positive.  The stored witness,
    however, concentrates each group's value on one representative — this
    keeps denominators (and hence the integer witness that synthesis scales
    up) small, and is still an acceptable solution because the constraint
    rows only see group sums.
    """
    per_unknown: dict[int, Fraction] = {}
    supported: set[int] = set()
    zero = Fraction(0)
    for members, value in zip(groups, values):
        for var in members:
            per_unknown[var] = zero
        if value > 0:
            per_unknown[members[0]] = value
            supported.update(members)
    return RoundSolution(per_unknown, frozenset(supported), backend_used,
                         metrics if metrics is not None else {})


# ----------------------------------------------------------------------
# The exact core
# ----------------------------------------------------------------------
def solve_sparse_groups(groups, rows,
                        metrics: Optional[dict[str, int]] = None
                        ) -> list[Fraction]:
    """The max-support LP over grouped columns, solved by the sparse core.

    ``metrics`` (optional) receives ``lp.sparse_solves`` and ``lp.pivots``.
    """
    values, pivots = solve_max_support_sparse(groups, rows)
    bump_metric(metrics, "lp.sparse_solves")
    bump_metric(metrics, "lp.pivots", pivots)
    return values


class SparseExactBackend:
    """The sparse fraction-free simplex plus the §4.4 closed form.

    Exact verdicts from the column-indexed integer-preserving solver of
    :mod:`repro.linear.sparse`.  Every round with candidates first tries
    the construct-and-verify closed form; a verified witness answers the
    round without any simplex at all (``lp.hierarchy_closed_form``, zero
    ``lp.pivots``).
    """

    name = "exact-sparse"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            arithmetic="exact-rational", sparse=True, closed_form=True,
            degeneracy="bland-anticycling")

    def describe(self) -> BackendDescription:
        return BackendDescription(
            name=self.name, aliases=(),
            summary="sparse fraction-free simplex with the §4.4 "
                    "hierarchy closed form",
            capabilities=self.capabilities())

    def solve(self, system: PsiSystem, positive_indices: Sequence[int], *,
              merge_columns: bool = True) -> RoundSolution:
        closed = _closed_form_round(system, positive_indices)
        if closed is not None:
            return closed
        groups, rows = grouped_columns(system, positive_indices, merge_columns)
        if not groups:
            return RoundSolution({}, frozenset(), "propagation")
        return self._solve_grouped(groups, rows)

    def _solve_grouped(self, groups, rows) -> RoundSolution:
        metrics: dict[str, int] = {}
        return _concentrated(groups, solve_sparse_groups(groups, rows, metrics),
                             self.name, metrics)


def _closed_form_round(system: PsiSystem,
                       positive_indices: Sequence[int]
                       ) -> Optional[RoundSolution]:
    """One round answered by the §4.4 closed form, or None (use the LP).
    A round without candidates is left to the LP path, which answers it
    by propagation."""
    if not positive_indices:
        return None
    witness = hierarchy_witness(system, positive_indices)
    if witness is None:
        return None
    metrics: dict[str, int] = {}
    bump_metric(metrics, "lp.hierarchy_closed_form")
    return RoundSolution(witness, frozenset(positive_indices),
                         "closed-form", metrics)


# ----------------------------------------------------------------------
# Float-first core with exact fallback
# ----------------------------------------------------------------------
def highs_solve(costs, rows, rhs, bounds) -> Optional[list[float]]:
    """One HiGHS call: minimize ``costs · x`` subject to ``Σ row · x ≤ rhs``
    per sparse row and the variable ``bounds``.  Returns the float optimum,
    or None when SciPy is missing or the solve fails."""
    try:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:
        return None
    data, row_idx, col_idx = [], [], []
    for r, row in enumerate(rows):
        for g, coeff in row.items():
            data.append(float(coeff))
            row_idx.append(r)
            col_idx.append(g)
    a_ub = csr_matrix((data, (row_idx, col_idx)),
                      shape=(len(rows), len(costs)))
    outcome = linprog(np.asarray(costs, dtype=float), A_ub=a_ub, b_ub=rhs,
                      bounds=bounds, method="highs")
    if not outcome.success:
        return None
    return [float(value) for value in outcome.x]


def solve_float_groups(groups, rows) -> Optional[list[float]]:
    """The max-support LP over grouped columns on HiGHS: maximize ``Σ t``
    with ``t_g ≤ x_g`` and ``t_g ≤ 1``.  Raw float group values, or None."""
    k = len(groups)
    t_rows = [{g: -1, k + g: 1} for g in range(k)]
    values = highs_solve([0.0] * k + [-1.0] * k, list(rows) + t_rows,
                         [0.0] * (len(rows) + k),
                         [(0, None)] * k + [(0, 1)] * k)
    return None if values is None else values[:k]


def rationalize(values: list[float], max_denominator: int) -> list[Fraction]:
    """Snap float values to nearby small rationals, zeroing solver noise."""
    snapped = []
    for value in values:
        rational = Fraction(value).limit_denominator(max_denominator)
        snapped.append(rational if rational > Fraction(1, 10 ** 7) else Fraction(0))
    return snapped


def rationalize_verified(floats: list[float], accept
                         ) -> Optional[list[Fraction]]:
    """The first rationalization of ``floats`` that ``accept`` vouches for
    exactly, trying denominators up to 60, 10^4 and 10^9 in turn, or None.
    Small denominators keep the integer witness (and so synthesized
    models) small."""
    for max_denominator in (60, 10 ** 4, 10 ** 9):
        candidate = rationalize(floats, max_denominator)
        if accept(candidate):
            return candidate
    return None


def verify_rows(rows, values) -> bool:
    """Exact check of ``Σ coeff·x ≤ 0`` for a rational candidate."""
    for row in rows:
        total = Fraction(0)
        for g, coeff in row.items():
            total += coeff * values[g]
        if total > 0:
            return False
    return True


def repair_float_witness(groups, rows, values,
                         metrics: Optional[dict[str, int]] = None
                         ) -> Optional[list[Fraction]]:
    """Try to turn a rationalized float solution into an exact one.

    The rationalized values may violate tight constraints by rounding noise.
    A cheap repair that preserves the support often works: re-solve the
    *exact* LP restricted to the support columns only.  Returns None when
    the repair would be as expensive as the full exact solve.
    """
    support_cols = [g for g, value in enumerate(values) if value > 0]
    if not support_cols or len(support_cols) > EXACT_BACKEND_LIMIT:
        return None
    position = {g: j for j, g in enumerate(support_cols)}
    restricted_rows: list[dict[int, int]] = []
    for row in rows:
        touched = {position[g]: coeff for g, coeff in row.items() if g in position}
        # A dropped column with positive coefficient only relaxes the row,
        # with negative coefficient the row is still valid at zero.
        if touched:
            restricted_rows.append(touched)
    sub_groups = [groups[g] for g in support_cols]
    sub_values = solve_sparse_groups(sub_groups, restricted_rows, metrics)
    if any(value <= 0 for value in sub_values):
        return None  # exact disagrees with the float support; caller redoes
    bump_metric(metrics, "lp.rationalize_repairs")
    repaired = [Fraction(0)] * len(groups)
    for g, value in zip(support_cols, sub_values):
        repaired[g] = value
    return repaired


class FloatFallbackBackend:
    """Float-first arithmetic with an exact safety net.

    The HiGHS optimum is snapped to small rationals and re-verified against
    every disequation *exactly*; only a verified certificate is accepted.
    The sparse exact core takes over whenever the float path is unavailable,
    fails, or is **degenerate**: a raw value inside the ambiguity band
    ``(degenerate_low, degenerate_high)`` is too close to zero to classify
    as supported-vs-pinned, the very distinction the method rests on.
    """

    name = "float-fallback"

    #: Raw float values strictly inside this open band are ambiguous.
    degenerate_low = 1e-9
    degenerate_high = 1e-6

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            arithmetic="float-first", sparse=True, closed_form=False,
            degeneracy="ambiguity-band-exact-fallback")

    def describe(self) -> BackendDescription:
        return BackendDescription(
            name=self.name, aliases=(),
            summary="HiGHS float-first with exact re-verification and an "
                    "exact safety net",
            capabilities=self.capabilities())

    def _degenerate(self, floats: list[float]) -> bool:
        return any(self.degenerate_low < value < self.degenerate_high
                   for value in floats)

    def solve(self, system: PsiSystem, positive_indices: Sequence[int], *,
              merge_columns: bool = True) -> RoundSolution:
        groups, rows = grouped_columns(system, positive_indices, merge_columns)
        if not groups:
            return RoundSolution({}, frozenset(), "propagation")
        return self._solve_grouped(groups, rows)

    def _solve_grouped(self, groups, rows) -> RoundSolution:
        metrics: dict[str, int] = {}
        values: Optional[list[Fraction]] = None
        floats = solve_float_groups(groups, rows)
        if floats is not None:
            bump_metric(metrics, "lp.float_solves")
        if floats is not None and self._degenerate(floats):
            bump_metric(metrics, "lp.degenerate_detections")
            floats = None
        if floats is not None:
            values = rationalize_verified(
                floats, lambda candidate: verify_rows(rows, candidate))
            if values is None:
                values = repair_float_witness(
                    groups, rows, rationalize(floats, 10 ** 9), metrics)
        if values is None:
            bump_metric(metrics, "lp.float_exact_fallbacks")
            return _concentrated(groups,
                                 solve_sparse_groups(groups, rows, metrics),
                                 SparseExactBackend.name, metrics)
        return _concentrated(groups, values, "float", metrics)


class AutoBackend:
    """Pick the core by system size: the sparse exact simplex below the
    column threshold, float-fallback (still exactly verified) beyond it;
    a round the §4.4 closed form certifies takes neither, whatever its
    size.

    The default threshold is the measured crossover on the scaled
    Theorem 4.3 workload (:data:`SPARSE_BACKEND_LIMIT` documents the
    sweep): below it the cores are within noise of each other and the
    sparse side avoids the optional ``scipy`` dependency and its cold
    import; above it the float-first path wins by growing factors."""

    name = "auto"

    def __init__(self):
        self._sparse = SparseExactBackend()
        self._float = FloatFallbackBackend()

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            arithmetic="hybrid", sparse=True, closed_form=True,
            degeneracy="ambiguity-band-exact-fallback")

    def describe(self) -> BackendDescription:
        return BackendDescription(
            name=self.name, aliases=(),
            summary=f"exact-sparse up to {SPARSE_BACKEND_LIMIT} LP columns, "
                    "float-fallback beyond",
            capabilities=self.capabilities())

    def solve(self, system: PsiSystem, positive_indices: Sequence[int], *,
              merge_columns: bool = True) -> RoundSolution:
        closed = _closed_form_round(system, positive_indices)
        if closed is not None:
            return closed
        groups, rows = grouped_columns(system, positive_indices, merge_columns)
        if not groups:
            return RoundSolution({}, frozenset(), "propagation")
        if len(groups) <= SPARSE_BACKEND_LIMIT:
            return self._sparse._solve_grouped(groups, rows)
        return self._float._solve_grouped(groups, rows)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, LpBackend] = {}


def register_backend(backend: LpBackend, *aliases: str) -> LpBackend:
    """Register ``backend`` under its ``name`` plus any ``aliases``."""
    for name in (backend.name, *aliases):
        _REGISTRY[name] = backend
    return backend


def get_backend(backend: "str | LpBackend") -> LpBackend:
    """Resolve a backend selection to an instance.

    Accepts a registry name (``"exact-sparse"``) or any object implementing
    the :class:`LpBackend` protocol (passed through).  Unknown names and
    objects missing the protocol raise
    :class:`~repro.core.errors.LinearSystemError`.
    """
    if isinstance(backend, str):
        try:
            return _REGISTRY[backend]
        except KeyError:
            known = ", ".join(sorted(_REGISTRY))
            raise LinearSystemError(
                f"unknown LP backend {backend!r}; available: {known}"
            ) from None
    if not isinstance(backend, LpBackend):
        raise LinearSystemError(
            f"object {backend!r} does not implement the LpBackend protocol")
    return backend


def available_backends() -> tuple[BackendDescription, ...]:
    """Every registered backend, described, sorted by canonical name.

    Aliases fold into their canonical entry's ``aliases`` instead of
    appearing as separate rows.
    """
    by_identity: dict[int, list[str]] = {}
    canonical: dict[int, LpBackend] = {}
    for name, backend in _REGISTRY.items():
        canonical[id(backend)] = backend
        if name != backend.name:
            by_identity.setdefault(id(backend), []).append(name)
    entries = []
    for key, backend in canonical.items():
        description = describe_backend(backend)
        aliases = tuple(sorted(set(by_identity.get(key, ()))
                        | set(description.aliases)))
        entries.append(BackendDescription(
            name=description.name, aliases=aliases,
            summary=description.summary,
            capabilities=description.capabilities))
    return tuple(sorted(entries, key=lambda entry: entry.name))


register_backend(SparseExactBackend())
register_backend(FloatFallbackBackend())
register_backend(AutoBackend())
