"""Admission control: bounded in-flight work, queue-time budgets, shedding.

Overload must degrade to *slower but correct*, never to collapse.  The
controller enforces three limits, in order:

1. **Queue depth** — at most ``max_queue`` requests may wait for an
   execution slot; a request arriving beyond that is shed immediately
   (429-style) with a retry-after hint derived from the observed service
   rate.
2. **Queue time** — a waiting request that cannot get a slot within
   ``queue_timeout`` seconds is shed rather than left to stack up (its
   caller's own deadline is probably blown anyway).
3. **In-flight slots** — at most ``max_inflight`` executions run
   concurrently; this bounds both CPU contention and the peak memory of
   concurrent trims.

Shutdown is cooperative: :meth:`AdmissionController.close` releases every
queued waiter with a ``shutting down`` shed, while in-flight slots drain
normally.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.exceptions import ReproError, ValidationError


class ShedRequestError(ReproError):
    """The request was refused by admission control (or a shutdown drain).

    Attributes
    ----------
    reason:
        ``"queue full"``, ``"queue timeout"``, or ``"shutting down"``.
    retry_after:
        Suggested seconds to wait before retrying (``None`` while shutting
        down — there is nothing to come back to).
    """

    def __init__(self, reason: str, retry_after: float | None) -> None:
        hint = f"; retry after {retry_after:.2f}s" if retry_after is not None else ""
        super().__init__(f"request shed: {reason}{hint}")
        self.reason = reason
        self.retry_after = retry_after


class AdmissionController:
    """Semaphore-bounded admission with queue-depth and queue-time limits."""

    def __init__(
        self,
        max_inflight: int = 4,
        max_queue: int = 16,
        queue_timeout: float = 2.0,
    ) -> None:
        if max_inflight < 1:
            raise ValidationError("max_inflight must be at least 1")
        if max_queue < 0:
            raise ValidationError("max_queue must be >= 0")
        if queue_timeout <= 0:
            raise ValidationError("queue_timeout must be positive")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._semaphore = asyncio.Semaphore(max_inflight)
        self._closed = asyncio.Event()
        self._waiting = 0
        self._inflight = 0
        #: Exponentially weighted execute latency, feeding retry-after hints.
        self._avg_execute = 0.05
        self.admitted = 0
        self.shed = 0

    # ------------------------------------------------------------------ #
    @property
    def waiting(self) -> int:
        """Requests currently queued for a slot."""
        return self._waiting

    @property
    def inflight(self) -> int:
        """Requests currently holding an execution slot."""
        return self._inflight

    def retry_after_hint(self) -> float:
        """Rough seconds until a retry is likely to be admitted.

        Little's-law estimate: the queue ahead of a retrying caller drains at
        ``max_inflight`` slots per average execute latency.  Clamped to a
        sane band so a cold estimate never suggests 0 or minutes.
        """
        backlog = self._waiting + self._inflight
        estimate = (backlog + 1) * self._avg_execute / self.max_inflight
        return min(30.0, max(0.05, estimate))

    def observe_execute_seconds(self, seconds: float) -> None:
        """Feed one observed execute latency into the retry-after estimate."""
        self._avg_execute = 0.8 * self._avg_execute + 0.2 * max(seconds, 0.001)

    # ------------------------------------------------------------------ #
    async def acquire(self) -> float:
        """Wait for an execution slot; returns the queue wait in seconds.

        Raises :class:`ShedRequestError` when the queue is full, the wait
        exceeds the queue-time budget, or the controller is closed.
        """
        if self._closed.is_set():
            raise ShedRequestError("shutting down", None)
        if self._inflight >= self.max_inflight and self._waiting >= self.max_queue:
            # Every slot held and the queue at capacity: shed immediately
            # (a free slot admits without queueing, whatever max_queue is).
            self.shed += 1
            raise ShedRequestError("queue full", self.retry_after_hint())
        if not self._waiting and not self._semaphore.locked():
            # A free slot and nobody queued ahead (FIFO): the semaphore grants
            # it without suspending, so no task and no wait.
            await self._semaphore.acquire()
            self.admitted += 1
            self._inflight += 1
            return 0.0
        started = time.monotonic()
        self._waiting += 1
        acquire = asyncio.ensure_future(self._semaphore.acquire())
        closed = asyncio.ensure_future(self._closed.wait())
        admitted = False
        try:
            done, _ = await asyncio.wait(
                {acquire, closed},
                timeout=self.queue_timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if acquire in done and acquire.exception() is None:
                admitted = True
                self.admitted += 1
                self._inflight += 1
                return time.monotonic() - started
            self.shed += 1
            if closed in done:
                raise ShedRequestError("shutting down", None)
            raise ShedRequestError("queue timeout", self.retry_after_hint())
        finally:
            self._waiting -= 1
            for task in (acquire, closed):
                if not task.done():
                    task.cancel()
            # A slot granted in the race window between the timeout/close and
            # the cancel must be returned, or capacity would shrink forever.
            if (
                not admitted
                and acquire.done()
                and not acquire.cancelled()
                and acquire.exception() is None
            ):
                self._semaphore.release()

    def release(self, execute_seconds: float | None = None) -> None:
        """Return an execution slot (and optionally report its latency)."""
        self._inflight -= 1
        self._semaphore.release()
        if execute_seconds is not None:
            self.observe_execute_seconds(execute_seconds)

    def close(self) -> None:
        """Start draining: shed every queued waiter, refuse new arrivals."""
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def stats(self) -> dict[str, Any]:
        return {
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "queue_timeout": self.queue_timeout,
            "inflight": self._inflight,
            "waiting": self._waiting,
            "admitted": self.admitted,
            "shed": self.shed,
            "avg_execute_seconds": round(self._avg_execute, 4),
            "closed": self.closed,
        }
