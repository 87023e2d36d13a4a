"""Degradation policies: what the engine does when a budget trips.

The paper's dichotomy (Theorem 5.6) already forces one "fall back when exact
is intractable" decision; this module generalizes it into a uniform policy
for *any* tripped budget.  The degradation ladder orders the strategies by
how much work they give up::

    exact (pivot or materialize)  →  approx-pivot  →  sampling  →  error

``materialize``, exact but the most expensive, ends the ``degrade`` ladder.
The ladder names every rung of the policy; whether one applies is the
engine's to say.  One that does not (approx-pivot under MIN/MAX/LEX, either
approximation without ``epsilon``, both on a cyclic query) raises before it
reduces or counts anything, and is skipped.

Each fallback rung runs under a **fresh budget equal to the original**, so a
single-rung policy (e.g. ``on_budget="sampling"``) returns or errors within
roughly twice the configured deadline.
"""

from __future__ import annotations

from repro.exceptions import SolverError

#: The engine's ``on_budget`` values, each with the strategies it retries in
#: order: ``"error"`` raises the :class:`~repro.exceptions.BudgetExceededError`,
#: ``"degrade"`` walks the whole ladder, the others retry once.
_POLICY_RUNGS: dict[str, tuple[str, ...]] = {
    "error": (),
    "approx": ("approx-pivot",),
    "sampling": ("sampling",),
    "materialize": ("materialize",),
    "degrade": ("approx-pivot", "sampling", "materialize"),
}
#: Accepted values of the engine's ``on_budget`` knob.
DEGRADATION_POLICIES = tuple(_POLICY_RUNGS)


def validate_policy(policy: str) -> str:
    """Check an ``on_budget`` value, returning it for chaining."""
    if policy not in DEGRADATION_POLICIES:
        raise SolverError(
            f"unknown on_budget policy {policy!r}; expected one of "
            f"{DEGRADATION_POLICIES}"
        )
    return policy


def degradation_ladder(policy: str, planned: str) -> list[str]:
    """The fallback strategies to attempt, in order, after ``planned`` (the
    strategy that tripped, never retried) tripped a budget under ``policy``."""
    validate_policy(policy)
    return [rung for rung in _POLICY_RUNGS[policy] if rung != planned]
