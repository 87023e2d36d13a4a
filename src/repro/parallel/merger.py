"""Coordinator side of sharded pivoting: mergeable rank counts.

Because the shard plan makes per-shard answer sets **disjoint** with union
``Q(D)`` (every answer binds the partition variable to one value), rank
counts are *mergeable summaries* in the sense of Agarwal et al. (PODS'12):
for any weight interval, the global candidate count is the sum of the
per-shard counts.

There is one pivoting loop, :func:`repro.core.quantile.run_pivoting`, and
two candidate sources for it.  The serial engine's source is a
:class:`~repro.core.quantile.LocalCandidates`; :class:`RankMerger` is the
sharded one: its candidate handles are per-shard count tuples, its ``step``
asks the largest surviving shard to *propose* a pivot and fans the lt/gt
counting out to every surviving shard, and its ``terminal`` merges the
shards' sorted columns.  The returned weight, target index, and total are
therefore bit-identical to the serial path (with K > 1 the pivot
trajectory may differ, which only changes iteration diagnostics, never the
selected rank).

:class:`ParallelSession` owns the pool plus per-shard bookkeeping and
threads the runtime guardrails through: in process mode each task carries
``(remaining deadline, row budget / K)`` and the coordinator charges the
workers' reported row usage back to the ambient context; cancellation is
observed at the coordinator's own per-round checkpoints.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, MutableMapping
from dataclasses import dataclass
from typing import Any

import repro.exceptions as _exceptions
from repro.core.quantile import PivotStep, Terminal, run_pivoting
from repro.core.result import QuantileResult
from repro.exceptions import (
    BudgetExceededError,
    ExecutionCancelledError,
    ReproError,
    SolverError,
)
from repro.kernels import active_backend
from repro.parallel.planner import ShardPlan
from repro.parallel.pool import ShardFuture, ShardPool, create_pool
from repro.parallel.worker import TaskResult
from repro.query.predicates import WeightInterval
from repro.ranking.base import RankingFunction
from repro.runtime import checkpoint, current_context

ShardCounts = tuple[int, ...]


class ParallelSession:
    """A live pool of initialized shards for one prepared (query, db, ranking).

    Built by :class:`~repro.engine.PreparedQuery` from a
    :class:`~repro.parallel.planner.ShardPlan`; :meth:`start` ships every
    shard to its worker, reduces and counts it there, and records per-shard
    totals.  After that the session is a thin RPC layer: it computes
    per-task guards from the ambient execution context, converts the
    ``(status, payload, rows)`` envelopes back into typed exceptions, and
    charges worker-reported row usage to the coordinator's context.
    """

    def __init__(
        self,
        plan: ShardPlan,
        ranking: RankingFunction,
        mode: str | None = None,
    ) -> None:
        self.plan = plan
        self.ranking = ranking
        self._pool: ShardPool = create_pool(plan.num_shards, mode)
        self.shard_totals: ShardCounts = ()
        self.total = 0
        self.reduced_rows = 0
        self.var_order: tuple[str, ...] = tuple(
            sorted({v for _, variables in plan.atoms for v in variables})
        )

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def inline(self) -> bool:
        return self._pool.inline

    @property
    def closed(self) -> bool:
        return self._pool.closed

    def close(self) -> None:
        self._pool.close()

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Ship, reduce, and count every shard; record per-shard totals."""
        checkpoint("parallel.init", rows=self.plan.total_rows)
        atoms = [list(entry) for entry in self.plan.atoms]
        outcomes = self.fan_out(
            (
                shard,
                "init",
                {
                    "atoms": atoms,
                    "relations": self.plan.shard_relations[shard],
                    "ranking": self.ranking,
                },
            )
            for shard in range(self.num_shards)
        )
        self.shard_totals = tuple(total for total, _ in outcomes)
        self.total = sum(self.shard_totals)
        self.reduced_rows = sum(reduced for _, reduced in outcomes)

    # ------------------------------------------------------------------ #
    def fan_out(self, tasks: Iterable[tuple[int, str, Any]]) -> list[Any]:
        """Run ``(shard, op, payload)`` tasks, returning payloads in order.

        Submits everything first (process lanes run concurrently), then
        gathers; worker-reported row usage is charged to the ambient context
        in one ``parallel.merge`` checkpoint, which is also where the
        coordinator observes deadlines and cancellation between rounds.
        """
        guards = self._guards()
        submitted: list[tuple[int, ShardFuture]] = [
            (shard, self._pool.submit(shard, op, payload, guards))
            for shard, op, payload in tasks
        ]
        payloads: list[Any] = []
        rows = 0
        for shard, future in submitted:
            payload, used = self._unwrap(shard, self._pool.result(shard, future))
            payloads.append(payload)
            rows += used
        checkpoint("parallel.merge", rows=rows)
        return payloads

    def _guards(self) -> tuple[float | None, int | None] | None:
        """Split the ambient budget across workers (process mode only).

        Inline tasks run under the coordinator's own context — handing them
        a split budget would double-charge every row.  Process tasks get the
        full remaining deadline (they run concurrently, wall-clock is
        shared) and a ``1/K`` slice of the remaining row budget (work is
        additive across shards).
        """
        if self._pool.inline:
            return None
        context = current_context()
        if context is None:
            return None
        time_left = context.remaining_time()
        rows_left = context.remaining_rows()
        if time_left is None and rows_left is None:
            return None
        row_slice = (
            None
            if rows_left is None
            else max(1, math.ceil(rows_left / self.num_shards))
        )
        return (time_left, row_slice)

    def _unwrap(self, shard: int, outcome: TaskResult) -> tuple[Any, int]:
        """Convert a worker envelope back into a payload or typed exception."""
        status, payload, rows = outcome
        if status == "ok":
            return payload, rows
        if status == "budget":
            message, budget, trip = payload
            raise BudgetExceededError(message, budget=budget, checkpoint=trip)
        if status == "cancelled":
            message, trip = payload
            raise ExecutionCancelledError(message, checkpoint=trip)
        name, message = payload
        exc_type = getattr(_exceptions, name, None)
        if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
            raise exc_type(f"shard {shard}: {message}")
        raise SolverError(f"shard {shard} worker failed: {name}: {message}")


class RankMerger:
    """The sharded candidate source: every count is a K-way sum.

    A candidate handle is the tuple of per-shard candidate counts (not just
    their sum): the merger needs them to pick the next proposer and to skip
    empty shards.  :meth:`solve` runs the shared pivoting loop over it; the
    prepared query passes its interval-keyed caches in, so repeated φ values
    reuse the expensive early rounds exactly like the serial path does.
    """

    def __init__(self, session: ParallelSession) -> None:
        self.session = session

    @property
    def total(self) -> int:
        return self.session.total

    @property
    def root(self) -> ShardCounts:
        return self.session.shard_totals

    # ------------------------------------------------------------------ #
    def solve(
        self,
        phi: float | None,
        index: int | None,
        original_variables: set[str],
        termination_size: int,
        step_cache: MutableMapping[WeightInterval, PivotStep] | None = None,
        answer_cache: MutableMapping[WeightInterval, Terminal] | None = None,
    ) -> QuantileResult:
        """Answer one quantile (or selection) query over the sharded order.

        The weight, target index, and total are bit-identical to the serial
        exact-pivot path.
        """
        return run_pivoting(
            self,
            phi,
            index,
            original_variables,
            termination_size,
            step_cache=step_cache,
            answer_cache=answer_cache,
        )

    # ------------------------------------------------------------------ #
    def step(self, interval: WeightInterval, shard_counts: ShardCounts) -> PivotStep:
        """One pivoting round: the largest shard proposes, everyone counts."""
        session = self.session
        active = [s for s in range(session.num_shards) if shard_counts[s] > 0]
        if not active:
            raise SolverError("no shard holds candidates for the current interval")
        # Largest surviving shard proposes (ties break to the lowest shard):
        # its local candidate distribution is the best stand-in for the
        # global one, so its c-pivot keeps the global elimination fraction.
        proposer = max(active, key=lambda s: (shard_counts[s], -s))
        [pivot] = session.fan_out([(proposer, "pivot", interval)])
        if pivot is None:
            raise SolverError(
                f"shard {proposer} reported no candidates despite a nonzero count"
            )
        pivot_weight, pivot_assignment, pivot_c = pivot
        outcomes = session.fan_out(
            (shard, "counts", (interval, pivot_weight)) for shard in active
        )
        lt_counts = [0] * session.num_shards
        gt_counts = [0] * session.num_shards
        # repro-analysis: allow RPR001 -- O(K) merge, K = shard count
        for shard, (count_lt, count_gt) in zip(active, outcomes):
            lt_counts[shard] = count_lt
            gt_counts[shard] = count_gt
        return PivotStep(
            dict(pivot_assignment),
            pivot_weight,
            pivot_c,
            tuple(lt_counts),
            sum(lt_counts),
            tuple(gt_counts),
            sum(gt_counts),
        )

    def terminal(
        self, interval: WeightInterval, shard_counts: ShardCounts, keep: Collection[str]
    ) -> MergedAnswers:
        """Gather and merge the surviving shards' weight-sorted columns.

        Each shard ships a sorted weight column plus one value column per
        ``var_order`` variable; the shard-order concatenation is merged with
        one stable argsort (equal weights keep shard order, so the result is
        deterministic across runs).
        """
        session = self.session
        weights: list[Any] = []
        columns: list[list[Any]] = [[] for _ in session.var_order]
        outcomes = session.fan_out(
            (shard, "terminal", interval)
            for shard in range(session.num_shards)
            if shard_counts[shard] > 0
        )
        for shard_weights, shard_columns in outcomes:
            weights.extend(shard_weights)
            for column, part in zip(columns, shard_columns):
                column.extend(part)
        checkpoint("parallel.merge", rows=len(weights))
        order = active_backend().argsort(weights)
        merged = {
            variable: [column[i] for i in order]
            for variable, column in zip(session.var_order, columns)
            if variable in keep
        }
        return MergedAnswers([weights[i] for i in order], merged)


@dataclass(frozen=True)
class MergedAnswers:
    """The shards' candidates as whole columns: the ascending weight column
    and one parallel value column per variable."""

    weights: list[Any]
    columns: dict[str, list[Any]]

    def __len__(self) -> int:
        return len(self.weights)

    def select(self, position: int) -> tuple[Any, dict[str, Any]]:
        picked = {variable: column[position] for variable, column in self.columns.items()}
        return self.weights[position], picked

    def estimated_bytes(self) -> int:
        return 8 * len(self.weights) * (1 + len(self.columns))


__all__ = [
    "ParallelSession",
    "RankMerger",
]
