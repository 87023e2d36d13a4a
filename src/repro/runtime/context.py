"""Execution contexts: deadlines, row budgets, and cooperative cancellation.

Every strategy in the engine — Yannakakis evaluation, counting, trimming,
weighted-median pivoting, sampling, materialization — used to run as an
unbounded, uninterruptible loop.  This module makes those loops cooperative:
they call :func:`checkpoint` at natural block boundaries (per tree node, per
produced answer, per join-tree edge's weighted median), and an ambient
:class:`ExecutionContext` turns those calls into budget and cancellation
checks.

Design constraints, in order:

1. **Zero cost when unused.**  Without an active context (and no fault hook
   installed) a checkpoint is one module-global read, one
   :class:`~contextvars.ContextVar` read, and two ``is None`` tests.  The
   one-shot library API never activates a context, so it pays nothing.
2. **No parameter threading.**  The context is ambient (a context variable),
   so deeply nested helpers — the segmented weighted median inside pivot
   selection inside the pivoting loop — are covered without every signature
   growing a ``context=`` argument.  Context variables also keep concurrent
   executions isolated per thread / asyncio task, which is what the
   always-on service scenario (ROADMAP item 2) needs.
3. **Deterministic fault injection.**  The same checkpoints double as named
   fault points: :mod:`repro.testing.faults` installs a process-wide hook via
   :func:`set_fault_hook` that fires *before* the budget checks, so tests can
   interrupt any cache build at an exact, reproducible position.

Checkpoints are **cooperative**: a loop that never calls :func:`checkpoint`
is not interruptible.  Budget trips raise
:class:`~repro.exceptions.BudgetExceededError`; a triggered
:class:`CancellationToken` raises
:class:`~repro.exceptions.ExecutionCancelledError` (which the engine never
swallows — cancellation always propagates).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from contextvars import ContextVar
from typing import Any

from repro.exceptions import (
    BudgetExceededError,
    ExecutionCancelledError,
    ValidationError,
)

#: The context active for the current thread/task, if any.
_ACTIVE: ContextVar["ExecutionContext | None"] = ContextVar(
    "repro_execution_context", default=None
)

#: Process-wide fault hook (installed by :mod:`repro.testing.faults`).
#: Called with the checkpoint name before any budget check runs.
_fault_hook: Callable[[str], None] | None = None


def set_fault_hook(hook: Callable[[str], None] | None) -> Callable[[str], None] | None:
    """Install (or clear) the process-wide fault hook; returns the previous one.

    Intended for the deterministic fault-injection harness only; the hook runs
    on *every* checkpoint of *every* execution in the process, so production
    code should never leave one installed.
    """
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    return previous


def current_context() -> "ExecutionContext | None":
    """The ambient :class:`ExecutionContext`, or ``None`` outside any."""
    return _ACTIVE.get()


def checkpoint(name: str, rows: int = 0) -> None:
    """Declare a safe interruption point in a hot loop.

    Parameters
    ----------
    name:
        Stable dotted identifier of the call site (``"yannakakis.answer"``,
        ``"index.hash"``, ...).  Budget errors report it, and the fault
        harness targets it.
    rows:
        Number of rows the caller processed or materialized since its last
        checkpoint; charged against the active context's row budget.  Loops
        should batch (one checkpoint per node / block), not call per row.
    """
    hook = _fault_hook
    if hook is not None:
        hook(name)
    context = _ACTIVE.get()
    if context is not None:
        context.checkpoint(name, rows)


class CancellationToken:
    """A cooperative cancellation flag shared between a caller and a run.

    The caller keeps the token and flips it with :meth:`cancel` (from another
    thread, a signal handler, or a service supervisor); every checkpoint of
    an execution whose context carries the token then raises
    :class:`~repro.exceptions.ExecutionCancelledError`.  Setting a plain
    boolean is atomic in CPython, so no lock is needed.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason: str | None = None

    def cancel(self, reason: str | None = None) -> None:
        """Request cancellation; idempotent, the first reason wins."""
        if not self._cancelled:
            self.reason = reason
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether cancellation was requested."""
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"cancelled, reason={self.reason!r}" if self._cancelled else "active"
        return f"CancellationToken({state})"


class ExecutionContext:
    """Budgets and cancellation for one execution, activated ambiently.

    Parameters
    ----------
    timeout:
        Wall-clock budget in seconds; the deadline is armed when the context
        is constructed.  ``None`` disables the deadline.
    max_rows:
        Budget on the total number of rows processed through checkpoints — a
        deterministic, machine-independent proxy for both work and memory
        (every materialized structure is charged by its row count).  ``None``
        disables the row budget.
    cancellation:
        Optional shared :class:`CancellationToken`.
    clock:
        Monotonic clock, injectable for tests.

    Use as a context manager::

        with ExecutionContext(timeout=1.0):
            prepared.quantile(0.5)     # every hot loop now honors the deadline

    Contexts nest: a checkpoint also propagates to the context that was
    active when this one was entered, so an outer deadline keeps applying
    inside an inner, more permissive context (the row charge is counted by
    both).
    """

    __slots__ = (
        "timeout",
        "max_rows",
        "cancellation",
        "started_at",
        "deadline",
        "rows_used",
        "checkpoints",
        "_clock",
        "_parent",
        "_token",
    )

    def __init__(
        self,
        timeout: float | None = None,
        max_rows: int | None = None,
        cancellation: CancellationToken | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {timeout!r}")
        if max_rows is not None and max_rows <= 0:
            raise ValidationError(f"max_rows must be positive, got {max_rows!r}")
        self.timeout = timeout
        self.max_rows = max_rows
        self.cancellation = cancellation
        self._clock = clock
        self.started_at = clock()
        self.deadline = None if timeout is None else self.started_at + timeout
        self.rows_used = 0
        self.checkpoints = 0
        self._parent: ExecutionContext | None = None
        self._token: Any = None

    # ------------------------------------------------------------------ #
    # Activation
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ExecutionContext":
        if self._token is not None:
            raise ValidationError("ExecutionContext is already active")
        self._parent = _ACTIVE.get()
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE.reset(self._token)
        self._token = None
        self._parent = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def elapsed(self) -> float:
        """Seconds since the context was constructed."""
        return self._clock() - self.started_at

    def remaining_time(self) -> float | None:
        """Seconds until the deadline (possibly negative), or ``None``."""
        if self.deadline is None:
            return None
        return self.deadline - self._clock()

    def remaining_rows(self) -> int | None:
        """Rows left in the budget (possibly negative), or ``None``."""
        if self.max_rows is None:
            return None
        return self.max_rows - self.rows_used

    # ------------------------------------------------------------------ #
    # The hot-path check
    # ------------------------------------------------------------------ #
    def checkpoint(self, name: str, rows: int = 0) -> None:
        """Check every limit; raise if one tripped.

        Called by the module-level :func:`checkpoint` for the active context;
        callers holding an explicit context may also call it directly.
        """
        self.checkpoints += 1
        cancellation = self.cancellation
        if cancellation is not None and cancellation.cancelled:
            reason = cancellation.reason or "execution cancelled"
            raise ExecutionCancelledError(
                f"{reason} (observed at checkpoint {name!r})", checkpoint=name
            )
        if rows:
            self.rows_used += rows
            if self.max_rows is not None and self.rows_used > self.max_rows:
                raise BudgetExceededError(
                    f"row budget of {self.max_rows} exceeded at checkpoint "
                    f"{name!r} ({self.rows_used} rows processed)",
                    budget="rows",
                    checkpoint=name,
                )
        if self.deadline is not None and self._clock() > self.deadline:
            raise BudgetExceededError(
                f"deadline of {self.timeout:.6g}s exceeded at checkpoint "
                f"{name!r} (elapsed {self.elapsed():.6g}s)",
                budget="timeout",
                checkpoint=name,
            )
        parent = self._parent
        if parent is not None:
            parent.checkpoint(name, rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limits = []
        if self.timeout is not None:
            limits.append(f"timeout={self.timeout}")
        if self.max_rows is not None:
            limits.append(f"max_rows={self.max_rows}")
        if self.cancellation is not None:
            limits.append(f"cancellation={self.cancellation!r}")
        return (
            f"ExecutionContext({', '.join(limits) or 'unbounded'}, "
            f"rows_used={self.rows_used}, checkpoints={self.checkpoints})"
        )
