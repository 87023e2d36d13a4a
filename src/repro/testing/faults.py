"""Deterministic fault injection at runtime checkpoints.

Every :func:`repro.runtime.checkpoint` call site is a named, reproducible
fault point.  A test arms a :class:`FaultPlan` with the checkpoint name and
the occurrence number at which to blow up, activates it with
:func:`inject_faults`, and runs the workload::

    plan = FaultPlan().arm("tree_cache.build", after=2)
    with inject_faults(plan):
        with pytest.raises(InjectedFault):
            engine.prepare(query, db, ranking)
    # caches must now be as if the failed call never happened
    assert engine.prepare(query, db, ranking).quantile(0.5) == expected

Because checkpoints fire in a deterministic order for a deterministic
workload, ``after=N`` always interrupts the same position in the same loop —
no timing, no randomness.  The plan records every checkpoint it observes
(:attr:`FaultPlan.seen`) and every fault it fired (:attr:`FaultPlan.fired`),
so tests can also assert coverage ("the fault actually hit mid-build").

Coverage is enforced, not just recorded: when the ``with inject_faults(...)``
block exits cleanly but an armed checkpoint name was *never observed* — the
classic silent failure mode after a checkpoint rename — the context manager
raises :class:`FaultCoverageError` so the test fails loudly instead of
passing while injecting nothing.  Pass ``strict=False`` to opt out (e.g.
when arming points on a path the workload only sometimes takes).
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from repro.exceptions import ReproError, ValidationError
from repro.runtime.context import set_fault_hook


class InjectedFault(ReproError):
    """The error raised by an armed fault (unless a custom one is supplied).

    Derives from :class:`~repro.exceptions.ReproError` so the engine's
    degradation machinery treats it like any other library failure: it is
    *not* a budget trip, so it propagates instead of being degraded away.
    """

    def __init__(self, checkpoint: str, occurrence: int) -> None:
        super().__init__(
            f"injected fault at checkpoint {checkpoint!r} "
            f"(occurrence {occurrence})"
        )
        self.checkpoint = checkpoint
        self.occurrence = occurrence


class FaultCoverageError(AssertionError):
    """An armed checkpoint name was never observed while the plan was active.

    Raised by :func:`inject_faults` on clean exit (strict mode, the default):
    a fault armed at a checkpoint that no longer exists — typically because
    the call site was renamed or removed — would otherwise let a consistency
    test silently pass without ever injecting its fault.  Derives from
    :class:`AssertionError` so test runners report it as a plain failure.
    """

    def __init__(self, names: list[str], seen: list[str]) -> None:
        super().__init__(
            f"armed checkpoint(s) {names!r} were never observed during the "
            f"run — was the checkpoint renamed or removed?  Observed "
            f"checkpoints: {sorted(seen)!r}"
        )
        self.names = names


class FaultPlan:
    """A set of armed faults plus a record of what actually happened.

    Attributes
    ----------
    seen:
        ``Counter`` of every checkpoint name observed while the plan was
        active (fired or not) — lets a test assert a checkpoint exists before
        trusting a "fault survived" result.
    fired:
        List of ``(checkpoint, occurrence)`` pairs for faults that raised.
    """

    def __init__(self) -> None:
        self._armed: dict[str, tuple[int, BaseException | None]] = {}
        self.seen: Counter[str] = Counter()
        self.fired: list[tuple[str, int]] = []
        # Concurrency tests share one plan across threads: a fault fires once.
        self._lock = threading.Lock()

    def arm(
        self,
        checkpoint: str,
        after: int = 0,
        error: BaseException | None = None,
    ) -> "FaultPlan":
        """Arm a one-shot fault; returns ``self`` for chaining.

        Parameters
        ----------
        checkpoint:
            Checkpoint name to fire at (exact match).
        after:
            Number of occurrences of the checkpoint to let pass first;
            ``after=0`` fires on the first hit.
        error:
            Exception instance to raise instead of :class:`InjectedFault`.
        """
        if after < 0:
            raise ValidationError(f"after must be >= 0, got {after!r}")
        self._armed[checkpoint] = (after, error)
        return self

    def observe(self, name: str) -> None:
        """The fault hook: count the checkpoint, fire if armed and due."""
        with self._lock:
            self.seen[name] += 1
            armed = self._armed.get(name)
            if armed is None:
                return
            remaining, error = armed
            if remaining > 0:
                self._armed[name] = (remaining - 1, error)
                return
            del self._armed[name]
            occurrence = self.seen[name]
            self.fired.append((name, occurrence))
        raise error if error is not None else InjectedFault(name, occurrence)

    def unseen_armed(self) -> list[str]:
        """Names of still-armed checkpoints that were never observed."""
        return sorted(name for name in self._armed if not self.seen[name])

    def verify_coverage(self) -> None:
        """Fail loudly if an armed checkpoint name was never observed.

        A checkpoint that was observed but did not reach its ``after`` count
        is *not* an error — the workload was just shorter than expected — but
        a name the run never hit means the fault plan targets a checkpoint
        that no longer exists.
        """
        unseen = self.unseen_armed()
        if unseen:
            raise FaultCoverageError(unseen, list(self.seen))


@contextmanager
def inject_faults(plan: FaultPlan, strict: bool = True) -> Iterator[FaultPlan]:
    """Activate ``plan`` as the process-wide fault hook for the block.

    The previous hook (normally ``None``) is restored on exit, even when the
    injected fault propagates out of the block.  On *clean* exit with
    ``strict=True`` (the default) the plan's coverage is verified: an armed
    checkpoint name that was never observed raises
    :class:`FaultCoverageError`, so a silent checkpoint rename cannot turn a
    fault test into a no-op.  When an exception is already propagating the
    verification is skipped — it must never mask the real failure.
    """
    previous = set_fault_hook(plan.observe)
    try:
        yield plan
    except BaseException:
        raise
    else:
        if strict:
            plan.verify_coverage()
    finally:
        set_fault_hook(previous)
