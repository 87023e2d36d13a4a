"""Request coalescing: concurrent φ requests merge into one shared batch.

The paper's amortization win (``batch_s`` beside ``detail.first_quantile_s``
in the ``benchmarks/e2e`` record) comes from running many φ
values over one prepared query: planning, semijoin reduction, the
materialized tree, and the interval-keyed pivot caches are all shared.  The
coalescer extends that win *across callers*: concurrent requests against
the same coalescing key — (database name, query spec, ranking spec,
strategy knobs, database fingerprint) — merge their φ sets into one batch
executed once, and each caller receives exactly the results for the φ
values it asked for.

Batch lifecycle:

1. The first request for a key opens a batch and becomes its *leader*.  The
   batch stays **open** while the leader waits for the previous batch of the
   same key (batches of one key never run concurrently — the prepared
   query's caches stay contention-free) and while it queues for an
   admission slot; requests arriving in that window join the batch instead
   of queueing themselves, which is exactly when coalescing pays: the more
   loaded the server, the wider the merge window.
2. Once the leader holds a slot the batch **closes** and executes every
   distinct φ once, in sorted order (adjacent φ values share pivot-search
   prefixes).
3. Outcomes are distributed per φ: a budget error for one φ reaches every
   caller that asked for that φ and **only** those callers; a caller whose
   φ values all succeeded is never failed by a stranger's φ.  Degraded
   results keep their per-result ``degraded``/``degradation`` marking, so
   no caller receives a silently lossy answer because the run was shared
   (each degradation note is annotated with the batch fan-in).
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable, Hashable, Sequence
from dataclasses import dataclass, field
from typing import Any


@dataclass
class BatchOutcome:
    """What one caller gets back from a (possibly shared) batch run.

    Attributes
    ----------
    outcomes:
        ``{phi: QuantileResult | Exception}`` for exactly the caller's φs.
    fan_in:
        Number of callers merged into the executed batch.
    queue_seconds:
        Time the batch waited for an admission slot (shared).
    execute_seconds:
        Engine time of the whole batch (shared).
    checkpoints:
        Runtime checkpoints the batch observed (shared).
    shards:
        Shard count of the parallel session that served the batch, or
        ``None`` when it ran single-process.
    """

    outcomes: dict[float, Any]
    fan_in: int
    queue_seconds: float
    execute_seconds: float
    checkpoints: int
    shards: int | None = None


@dataclass
class _Batch:
    key: Hashable
    phis: dict[float, None] = field(default_factory=dict)  # ordered set
    waiters: list[tuple[tuple[float, ...], asyncio.Future[Any]]] = field(default_factory=list)
    closed: bool = False

    def join(self, phis: Sequence[float], future: asyncio.Future) -> None:
        for phi in phis:
            self.phis[phi] = None
        self.waiters.append((tuple(phis), future))


#: Executes the closed batch: maps each distinct φ to its result object or
#: the exception it raised, plus (execute_seconds, checkpoints).
BatchRunner = Callable[
    [tuple[float, ...]], Awaitable[tuple[dict[float, Any], float, int]]
]


class Coalescer:
    """Merges concurrent same-key φ requests into single batch executions.

    Single-threaded by construction: all bookkeeping runs on the event
    loop, so no locks are needed.  Execution itself is delegated to the
    caller-supplied async ``runner`` (the service runs the engine batch in
    an executor thread).
    """

    def __init__(self) -> None:
        self._open: dict[Hashable, _Batch] = {}
        self._running: dict[Hashable, asyncio.Future[Any]] = {}
        self.batches = 0
        self.requests = 0
        self.merged_requests = 0
        self.max_fan_in = 0

    async def submit(
        self,
        key: Hashable,
        phis: Sequence[float],
        admit: Callable[[], Awaitable[float]],
        release: Callable[[float], None],
        runner: BatchRunner,
    ) -> BatchOutcome:
        """Submit one caller's φ set; returns its share of the batch outcome.

        ``admit``/``release`` bracket the admission slot (only the batch
        leader calls them — followers ride along without consuming slots).
        Admission shedding raised by ``admit`` propagates to every caller
        merged into the batch.
        """
        self.requests += 1
        loop = asyncio.get_running_loop()
        batch = self._open.get(key)
        if batch is not None and not batch.closed:
            # Follower: merge into the open batch and wait for its outcome.
            self.merged_requests += 1
            future: asyncio.Future = loop.create_future()
            batch.join(phis, future)
            return await future
        batch = _Batch(key)
        future = loop.create_future()
        batch.join(phis, future)
        self._open[key] = batch
        self.batches += 1
        try:
            await self._lead(key, batch, admit, release, runner)
        finally:
            if self._open.get(key) is batch:
                del self._open[key]
        return await future

    async def _lead(
        self,
        key: Hashable,
        batch: _Batch,
        admit: Callable[[], Awaitable[float]],
        release: Callable[[float], None],
        runner: BatchRunner,
    ) -> None:
        """Drive one batch: serialize per key, admit, execute, distribute."""
        try:
            # Keep the batch open while the previous batch of this key runs:
            # per-key serialization protects the shared prepared query and
            # widens the coalescing window under load.
            previous = self._running.get(key)
            if previous is not None:
                await asyncio.shield(previous)
            queue_seconds = await admit()
        except BaseException as error:  # shed, shutdown, cancellation
            self._close(key, batch)
            self._distribute_error(batch, error)
            return
        done: asyncio.Future = asyncio.get_running_loop().create_future()
        self._running[key] = done
        execute_seconds = 0.0
        try:
            self._close(key, batch)
            fan_in = len(batch.waiters)
            self.max_fan_in = max(self.max_fan_in, fan_in)
            merged = tuple(sorted(batch.phis))
            try:
                # Runners return (outcomes, execute_seconds, checkpoints) and
                # may append a shard count; unpack flexibly so simpler test
                # runners keep working with the 3-tuple shape.
                result = await runner(merged)
            except BaseException as error:
                self._distribute_error(batch, error)
                return
            outcomes, execute_seconds, checkpoints = result[0], result[1], result[2]
            shards = result[3] if len(result) > 3 else None
            for requested, future in batch.waiters:
                if not future.done():
                    future.set_result(
                        BatchOutcome(
                            outcomes={phi: outcomes[phi] for phi in requested},
                            fan_in=fan_in,
                            queue_seconds=queue_seconds,
                            execute_seconds=execute_seconds,
                            checkpoints=checkpoints,
                            shards=shards,
                        )
                    )
        finally:
            release(execute_seconds)
            if self._running.get(key) is done:
                del self._running[key]
            done.set_result(None)

    # ------------------------------------------------------------------ #
    def _close(self, key: Hashable, batch: _Batch) -> None:
        batch.closed = True
        if self._open.get(key) is batch:
            del self._open[key]

    @staticmethod
    def _distribute_error(batch: _Batch, error: BaseException) -> None:
        """Fail every waiter of a batch that never produced outcomes."""
        for _, future in batch.waiters:
            if not future.done():
                future.set_exception(error)

    def stats(self) -> dict[str, Any]:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "merged_requests": self.merged_requests,
            "open_batches": len(self._open),
            "running_batches": len(self._running),
            "max_fan_in": self.max_fan_in,
        }
