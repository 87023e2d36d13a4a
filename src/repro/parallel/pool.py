"""Worker pools: K pinned process lanes, plus an in-process inline twin.

A :class:`WorkerPool` runs one single-worker
:class:`~concurrent.futures.ProcessPoolExecutor` *lane* per shard, so a
shard's state (reduced database, tree cache, cover source) lives in
exactly one process for the pool's whole lifetime — tasks for shard ``s``
always land on lane ``s`` and never re-ship the shard.

An :class:`InlinePool` implements the same surface synchronously in the
calling process: deterministic, debuggable, and free of fork overhead —
tests substitute it for :func:`create_pool`.  Inline tasks run under the
coordinator's *ambient* execution context (the pool reports
``inline = True`` so the coordinator skips per-task guard splitting and
double row-charging).

Crash semantics: a dead worker surfaces as
:class:`~repro.exceptions.WorkerCrashError` (the engine degrades the call
to the serial path, noting it); an orderly :meth:`WorkerPool.close` —
eviction, ``PreparedQuery.close`` — surfaces as
:class:`~repro.exceptions.WorkerPoolClosedError` (silent serial fallback).
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Protocol

from repro.exceptions import (
    ValidationError,
    WorkerCrashError,
    WorkerPoolClosedError,
)
from repro.parallel.worker import TaskResult, run_shard_task

Guards = tuple[float | None, int | None] | None

_STATE_KEY_LOCK = threading.Lock()
_NEXT_STATE_BASE = 0


def _allocate_state_keys(count: int) -> int:
    """Reserve ``count`` contiguous shard-state keys, unique per pool.

    Inline pools host every shard state in *this* process's module-global
    ``_SHARD_STATES``, so two concurrent pools must never reuse keys.
    Process pools get the same treatment for uniformity (each lane is its
    own process, so collisions there are impossible anyway).
    """
    global _NEXT_STATE_BASE
    with _STATE_KEY_LOCK:
        base = _NEXT_STATE_BASE
        _NEXT_STATE_BASE += count
        return base


class ShardPool(Protocol):
    """What the merger needs from a pool implementation."""

    inline: bool
    num_shards: int

    @property
    def closed(self) -> bool: ...

    def submit(
        self, shard: int, op: str, payload: Any, guards: Guards
    ) -> "ShardFuture": ...

    def result(self, shard: int, future: "ShardFuture") -> TaskResult: ...

    def close(self) -> None: ...


class ShardFuture(Protocol):
    """The slice of :class:`concurrent.futures.Future` the merger uses."""

    def result(self, timeout: float | None = None) -> TaskResult: ...


class WorkerPool:
    """K process lanes, shard ``s`` pinned to lane ``s``."""

    inline = False

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self._state_base = _allocate_state_keys(num_shards)
        self._lanes = [
            ProcessPoolExecutor(max_workers=1) for _ in range(num_shards)
        ]
        # A lane runs its tasks in order, so it is idle once its latest is done.
        self._latest: list[Future[TaskResult] | None] = [None] * num_shards
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(
        self, shard: int, op: str, payload: Any, guards: Guards
    ) -> Future:
        if self._closed:
            raise WorkerPoolClosedError("the worker pool has been shut down")
        try:
            future = self._lanes[shard].submit(
                run_shard_task, self._state_base + shard, op, payload, guards
            )
            self._latest[shard] = future
            return future
        except BrokenProcessPool as exc:
            raise WorkerCrashError(
                f"shard {shard} worker process died: {exc}"
            ) from exc
        except RuntimeError as exc:
            # A concurrent close() raced this submit.
            raise WorkerPoolClosedError(str(exc)) from exc

    def result(self, shard: int, future: Future) -> TaskResult:
        try:
            outcome: TaskResult = future.result()
            return outcome
        except BrokenProcessPool as exc:
            raise WorkerCrashError(
                f"shard {shard} worker process died: {exc}"
            ) from exc
        except CancelledError as exc:
            raise WorkerPoolClosedError(
                f"shard {shard} task cancelled by pool shutdown"
            ) from exc

    def close(self) -> None:
        """Shut every lane down (idempotent).

        An idle lane is waited for — its worker exits at once — so that a
        closed pool leaves no half-shut-down executor behind for the
        interpreter's exit handlers to trip over ("Bad file descriptor" on
        stderr).  A lane that is still running a task is not: that task may
        be why the pool is being closed.
        """
        if self._closed:
            return
        self._closed = True
        # repro-analysis: allow RPR001 -- O(K) shutdown, K = shard count
        for lane, latest in zip(self._lanes, self._latest):
            lane.shutdown(wait=latest is None or latest.done(), cancel_futures=True)


class _InlineFuture:
    """An already-resolved future (inline tasks run at submit time)."""

    def __init__(self, outcome: TaskResult) -> None:
        self._outcome = outcome

    def result(self, timeout: float | None = None) -> TaskResult:
        return self._outcome


class InlinePool:
    """Synchronous pool twin: every task runs in the calling process.

    Guards are intentionally ignored (``run_shard_task`` receives ``None``):
    the task executes under the coordinator's ambient
    :class:`~repro.runtime.ExecutionContext`, which already enforces the
    global deadline/row budget and observes cancellation at every
    checkpoint — splitting the budget again would double-charge rows.
    """

    inline = True

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self._state_base = _allocate_state_keys(num_shards)
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(
        self, shard: int, op: str, payload: Any, guards: Guards
    ) -> _InlineFuture:
        if self._closed:
            raise WorkerPoolClosedError("the worker pool has been shut down")
        return _InlineFuture(
            run_shard_task(self._state_base + shard, op, payload, None)
        )

    def result(self, shard: int, future: _InlineFuture) -> TaskResult:
        return future.result()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Inline shard states live in *this* process — drop them now rather
        # than waiting for interpreter exit.
        from repro.parallel.worker import _SHARD_STATES

        # repro-analysis: allow RPR001 -- O(K) cleanup, K = shard count
        for shard in range(self.num_shards):
            _SHARD_STATES.pop(self._state_base + shard, None)


def create_pool(num_shards: int) -> WorkerPool:
    """The pool a :class:`~repro.parallel.merger.ParallelSession` runs on:
    K worker processes (tests patch this to :class:`InlinePool`)."""
    return WorkerPool(num_shards)


__all__ = [
    "Guards",
    "InlinePool",
    "ShardFuture",
    "ShardPool",
    "WorkerPool",
    "create_pool",
]
