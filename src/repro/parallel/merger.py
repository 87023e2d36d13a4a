"""Coordinator side of sharded pivoting: mergeable rank counts.

Because the shard plan makes per-shard answer sets **disjoint** with union
``Q(D)`` (every answer binds the partition variable to one value), rank
counts are *mergeable summaries* in the sense of Agarwal et al. (PODS'12):
for any weight interval, the global candidate count is the sum of the
per-shard counts, and a φ-quantile over the global order reduces to the
serial pivoting loop with each count replaced by a K-way sum.

:class:`RankMerger` mirrors :func:`repro.core.quantile.pivoting_quantile`
line for line — same target-index arithmetic, same iteration cap, same
lt/eq/gt branching, same terminal materialize-and-select — but each
iteration asks the largest surviving shard to *propose* a pivot and then
fans the lt/gt counting out to every surviving shard.  The returned weight,
target index, and total are therefore bit-identical to the serial path
(the pivot trajectory may differ, which only changes iteration diagnostics,
never the selected rank).

:class:`ParallelSession` owns the pool plus per-shard bookkeeping and
threads the runtime guardrails through: in process mode each task carries
``(remaining deadline, row budget / K)`` and the coordinator charges the
workers' reported row usage back to the ambient context; cancellation is
observed at the coordinator's own per-round checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

import repro.exceptions as _exceptions
from repro.core.quantile import CappedCache, project, target_index_for
from repro.core.result import IterationStats, QuantileResult
from repro.exceptions import (
    BudgetExceededError,
    EmptyResultError,
    ExecutionCancelledError,
    ReproError,
    SolverError,
    ValidationError,
)
from repro.joins.yannakakis import SortedAnswers
from repro.kernels import active_backend
from repro.parallel.planner import ShardPlan
from repro.parallel.pool import ShardFuture, ShardPool, create_pool
from repro.parallel.worker import TaskResult
from repro.query.predicates import WeightInterval
from repro.ranking.base import RankingFunction
from repro.runtime import checkpoint, current_context

#: Default cap on memoized merged pivot steps (mirrors the engine's
#: pivot-cache bound; evicted intervals are recomputed by the shards).
DEFAULT_MERGED_STEP_CACHE_LIMIT = 256

#: Default cap on memoized terminal answer columns.
DEFAULT_MERGED_ANSWER_CACHE_LIMIT = 32

Assignment = dict[str, Any]


@dataclass(frozen=True)
class MergedStep:
    """One memoized pivoting iteration over the sharded candidate sets.

    The per-shard lt/gt counts are kept (not just their sums) because they
    are next round's ``shard_counts`` — the merger needs them to pick the
    next proposer and to skip empty shards.
    """

    pivot_weight: Any
    pivot_assignment: Assignment
    pivot_c: float
    lt_counts: tuple[int, ...]
    gt_counts: tuple[int, ...]

    @property
    def count_lt(self) -> int:
        return sum(self.lt_counts)

    @property
    def count_gt(self) -> int:
        return sum(self.gt_counts)


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
        self.shard_totals: tuple[int, ...] = ()
        self.shard_reduced: tuple[int, ...] = ()
        self.total = 0
        self.reduced_rows = 0
        self.var_order: tuple[str, ...] = tuple(
            sorted({v for _, variables in plan.atoms for v in variables})
        )
        self._started = False

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
        totals: list[int] = []
        reduced: list[int] = []
        for shard_total, shard_reduced in outcomes:
            totals.append(shard_total)
            reduced.append(shard_reduced)
        self.shard_totals = tuple(totals)
        self.shard_reduced = tuple(reduced)
        self.total = sum(totals)
        self.reduced_rows = sum(reduced)
        self._started = True

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
            # repro-analysis: allow RPR001 -- O(K) fan-out, K = shard count
            for shard, op, payload in tasks
        ]
        payloads: list[Any] = []
        rows = 0
        for shard, future in submitted:
            # repro-analysis: allow RPR001 -- O(K) gather, K = shard count
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
    """The sharded pivoting loop: serial Algorithm 1 over summed counts.

    One merger is attached per prepared query; its interval-keyed caches
    play the role of the engine's pivot/answer caches, so repeated φ values
    reuse the expensive early rounds exactly like the serial path does.
    """

    def __init__(
        self,
        session: ParallelSession,
        step_cache_limit: int = DEFAULT_MERGED_STEP_CACHE_LIMIT,
        answer_cache_limit: int = DEFAULT_MERGED_ANSWER_CACHE_LIMIT,
    ) -> None:
        self.session = session
        self._steps: CappedCache = CappedCache(step_cache_limit)
        #: Terminal interval -> merged weight-sorted answer columns (sized by
        #: ``PreparedQuery.estimated_bytes``).
        self.answer_cache: CappedCache = CappedCache(answer_cache_limit)

    # ------------------------------------------------------------------ #
    def solve(
        self,
        phi: float | None,
        index: int | None,
        original_variables: set[str],
        termination_size: int,
    ) -> QuantileResult:
        """Answer one quantile (or selection) query over the sharded order.

        Mirrors :func:`repro.core.quantile.pivoting_quantile` with every
        candidate count replaced by its K-way sum; the weight, target index,
        and total are bit-identical to the serial exact-pivot path.
        """
        session = self.session
        total = session.total
        if total == 0:
            raise EmptyResultError("the query has no answers, so no quantile exists")
        if (phi is None) == (index is None):
            raise ValidationError("exactly one of phi and index must be provided")
        if index is not None:
            if not 0 <= index < total:
                raise ValidationError(f"index {index} out of range [0, {total})")
            target = index
        else:
            target = target_index_for(phi, total)  # type: ignore[arg-type]

        interval = WeightInterval()
        shard_counts = session.shard_totals
        current_count = total
        remaining_index = target
        stats: list[IterationStats] = []
        iteration_cap = 0

        while current_count > termination_size:
            checkpoint("parallel.iteration")
            step = self._steps.get(interval)
            if step is None:
                step = self._compute_step(interval, shard_counts)
                self._steps[interval] = step
            if iteration_cap == 0:
                c = max(step.pivot_c, 1e-3)
                iteration_cap = (
                    int(math.ceil(math.log(max(total, 2)) / -math.log(1 - c))) + 20
                )
            if len(stats) >= iteration_cap:
                raise SolverError(
                    f"pivoting did not converge within {iteration_cap} iterations; "
                    "this indicates an inconsistent trimmer"
                )
            count_lt = step.count_lt
            count_gt = step.count_gt
            count_eq = max(0, current_count - count_lt - count_gt)

            if remaining_index < count_lt:
                chosen = "lt"
                interval = interval.with_high(step.pivot_weight, strict=True)
                shard_counts = step.lt_counts
                current_count = count_lt
            elif remaining_index < count_lt + count_eq:
                chosen = "eq"
            else:
                chosen = "gt"
                remaining_index -= count_lt + count_eq
                interval = interval.with_low(step.pivot_weight, strict=True)
                shard_counts = step.gt_counts
                current_count = count_gt
            stats.append(
                IterationStats(
                    pivot_weight=step.pivot_weight,
                    c=step.pivot_c,
                    count_lt=count_lt,
                    count_eq=count_eq,
                    count_gt=count_gt,
                    candidate_count=count_eq if chosen == "eq" else current_count,
                    chosen=chosen,
                )
            )
            if chosen == "eq" or current_count == 0:
                # Same fallback as the serial loop: an emptied branch means
                # every remaining candidate shares the pivot weight.
                assignment = project(step.pivot_assignment, original_variables)
                return self._result(assignment, step.pivot_weight, target, stats)

        answers = self.answer_cache.get(interval)
        if answers is None:
            answers = self._terminal(interval, shard_counts)
            if not answers[0]:
                raise SolverError("no candidate answers remained to materialize")
            self.answer_cache[interval] = answers
        weights, columns = answers
        position = min(remaining_index, len(weights) - 1)
        assignment = {
            variable: column[position]
            for variable, column in columns.items()
            if variable in original_variables
        }
        return self._result(assignment, weights[position], target, stats)

    # ------------------------------------------------------------------ #
    def _compute_step(
        self, interval: WeightInterval, shard_counts: tuple[int, ...]
    ) -> MergedStep:
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
        return MergedStep(
            pivot_weight=pivot_weight,
            pivot_assignment=dict(pivot_assignment),
            pivot_c=pivot_c,
            lt_counts=tuple(lt_counts),
            gt_counts=tuple(gt_counts),
        )

    def _terminal(
        self, interval: WeightInterval, shard_counts: tuple[int, ...]
    ) -> SortedAnswers:
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
        return [weights[i] for i in order], {
            variable: [column[i] for i in order]
            for variable, column in zip(session.var_order, columns)
        }

    def _result(
        self,
        assignment: Assignment,
        weight: Any,
        target: int,
        stats: list[IterationStats],
    ) -> QuantileResult:
        return QuantileResult(
            assignment=assignment,
            weight=weight,
            target_index=target,
            total_answers=self.session.total,
            strategy="exact-pivot",
            exact=True,
            epsilon=None,
            iterations=len(stats),
            stats=tuple(stats),
        )


__all__ = [
    "DEFAULT_MERGED_ANSWER_CACHE_LIMIT",
    "DEFAULT_MERGED_STEP_CACHE_LIMIT",
    "MergedStep",
    "ParallelSession",
    "RankMerger",
]
