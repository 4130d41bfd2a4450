"""Cooperative execution budgets: wall-clock deadlines and step bounds.

The paper's Section 4 constructions make the decision procedure EXPTIME-hard
in the worst case, so a service answering arbitrary schemas cannot promise
to finish — but it *can* promise to stop.  A :class:`Budget` is the
cooperative cancellation token that makes that promise enforceable: the hot
loops of the pipeline (DPLL branching in
:func:`repro.expansion.enumerate.dpll_compound_classes`,
compound-candidate enumeration in
:mod:`repro.expansion.expansion`, simplex pivoting in
:mod:`repro.linear.sparse`) call :meth:`Budget.tick` once per unit of
work, and the budget raises :class:`~repro.core.errors.BudgetExceeded` as
soon as either bound is crossed:

* ``deadline`` — wall-clock seconds from the budget's construction;
* ``max_steps`` — a deterministic step bound (useful in tests, where a
  tiny step budget proves a loop is actually guarded, independently of
  machine speed).

Design constraints mirror the tracer's (:mod:`repro.obs.tracer`):

1. **Near-zero cost when absent.**  Call sites obtain the ambient budget
   via :func:`current_budget`, which defaults to :data:`NULL_BUDGET` —
   a no-op whose ``tick`` does nothing.  Hot loops bind ``tick =
   budget.tick`` to a local once, so the unbudgeted path pays one no-op
   call per iteration (each iteration's real work dwarfs it).
2. **Ambient, not threaded.**  Budgets are per *query*, not per engine
   configuration — a frozen :class:`~repro.engine.config.EngineConfig`
   keys caches and must not carry one.  :func:`use_budget` installs a
   budget on the current context (a :class:`contextvars.ContextVar`, so
   thread- and task-safe); everything the ``with`` body executes is
   governed by it, without any signature changes.
3. **Catchable, isolating.**  :class:`~repro.core.errors.BudgetExceeded`
   is a :class:`~repro.core.errors.CarError` with its own sysexit code, so
   a batch driver can convert one runaway query into an error-carrying
   result and keep going.

>>> from repro.core.budget import Budget, use_budget
>>> with use_budget(Budget(max_steps=100)):
...     pass  # any reasoning in here stops after 100 hot-loop steps
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Union

from .errors import BudgetExceeded

__all__ = [
    "Budget",
    "NullBudget",
    "NULL_BUDGET",
    "current_budget",
    "use_budget",
]


class Budget:
    """A cooperative budget: wall-clock deadline and/or step bound.

    The clock starts at construction (:func:`time.monotonic`), so build the
    budget when the work starts, not ahead of time.  ``steps`` counts every
    unit of work ticked so far — the batch executor reports it as the
    ``executor.budget_checks`` counter.

    A budget is single-use state, not configuration: one budget governs one
    query (or one batch, if the caller wants a shared bound) and is not
    reusable after it trips.
    """

    __slots__ = ("deadline", "max_steps", "steps", "_expires_at")

    enabled = True

    def __init__(self, deadline: Optional[float] = None,
                 max_steps: Optional[int] = None):
        if deadline is not None and deadline <= 0:
            raise BudgetExceeded(
                f"deadline must be positive, got {deadline}; a query with "
                f"no time is over before it starts")
        if max_steps is not None and max_steps < 1:
            raise BudgetExceeded(
                f"max_steps must be positive, got {max_steps}")
        self.deadline = deadline
        self.max_steps = max_steps
        self.steps = 0
        self._expires_at = (None if deadline is None
                            else time.monotonic() + deadline)

    def tick(self, amount: int = 1) -> None:
        """Charge ``amount`` units of work; raise when a bound is crossed.

        Called from the hot loops, so the body is deliberately minimal: an
        integer add, a bound compare, and (when a deadline is set) one
        monotonic clock read — all cheap relative to a DPLL branch, a
        typing-consistency probe, or a simplex pivot.
        """
        self.steps += amount
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(
                f"step budget exhausted: {self.steps} > {self.max_steps}",
                steps=self.steps, deadline=self.deadline)
        if (self._expires_at is not None
                and time.monotonic() > self._expires_at):
            raise BudgetExceeded(
                f"deadline of {self.deadline:g}s exceeded after "
                f"{self.steps} steps", steps=self.steps,
                deadline=self.deadline)

    def check(self) -> None:
        """An explicit checkpoint (no step charged): raise if expired."""
        if (self._expires_at is not None
                and time.monotonic() > self._expires_at):
            raise BudgetExceeded(
                f"deadline of {self.deadline:g}s exceeded after "
                f"{self.steps} steps", steps=self.steps,
                deadline=self.deadline)
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(
                f"step budget exhausted: {self.steps} > {self.max_steps}",
                steps=self.steps, deadline=self.deadline)

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline (None when no deadline is set)."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    def remaining_steps(self) -> Optional[int]:
        """Steps until the bound (None when no step bound is set)."""
        if self.max_steps is None:
            return None
        return max(0, self.max_steps - self.steps)

    def __repr__(self) -> str:
        return (f"Budget(deadline={self.deadline!r}, "
                f"max_steps={self.max_steps!r}, steps={self.steps})")


class NullBudget:
    """The absent budget: every method is a no-op that never raises.

    A single module-level instance (:data:`NULL_BUDGET`) is the ambient
    default, so unguarded callers pay one no-op method call per hot-loop
    iteration and nothing else.
    """

    __slots__ = ()

    enabled = False
    deadline = None
    max_steps = None
    steps = 0

    def tick(self, amount: int = 1) -> None:
        pass

    def check(self) -> None:
        pass

    def remaining_seconds(self) -> None:
        return None

    def remaining_steps(self) -> None:
        return None

    def __repr__(self) -> str:
        return "NULL_BUDGET"


NULL_BUDGET = NullBudget()

#: The ambient budget: a context-scoped cancellation token so the hot loops
#: can be governed without threading a parameter through every signature.
_CURRENT: ContextVar[Union[Budget, NullBudget]] = ContextVar(
    "repro_budget", default=NULL_BUDGET)


def current_budget() -> Union[Budget, NullBudget]:
    """The ambient budget (:data:`NULL_BUDGET` unless :func:`use_budget`
    is active on the current context)."""
    return _CURRENT.get()


@contextmanager
def use_budget(budget: Union[Budget, NullBudget, None]) -> Iterator[None]:
    """Install ``budget`` as the ambient budget for the ``with`` body.

    ``None`` installs :data:`NULL_BUDGET` (explicitly lifting any outer
    budget for the body — the executor uses this to keep its own
    bookkeeping outside a query's budget).
    """
    token = _CURRENT.set(budget if budget is not None else NULL_BUDGET)
    try:
        yield
    finally:
        _CURRENT.reset(token)
