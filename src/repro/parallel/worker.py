"""Per-shard worker: the existing pipeline, unchanged, over one shard.

Each shard process holds a :class:`_ShardState` — the rebuilt canonical
query, the shard database, its Yannakakis reduction, a
:class:`~repro.joins.tree_cache.TreeCache`, a trimmer, and an
interval-keyed candidate cache — and answers four operations shipped by the
coordinator through :func:`run_shard_task`:

* ``init``    — build the shard from flat column payloads, reduce, count;
* ``pivot``   — propose a c-pivot among the shard's current candidates;
* ``counts``  — trim lt/gt partitions for a pivot weight and count them;
* ``terminal``— the remaining candidates as weight-sorted columns.

The reduction, counting, trimming, and pivot selection are the *same*
functions the serial engine uses; sharding never forks the algorithm.  All
results travel in a ``(status, payload, rows_used)`` envelope so typed
errors (budget trips, cancellation, empty shards) cross the process
boundary without relying on exception pickling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.data.columns import ColumnStore
from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import (
    BudgetExceededError,
    ExecutionCancelledError,
    RankingError,
    ReproError,
)
from repro.joins.counting import count_answers, count_from_tree
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import evaluate_sorted, full_reduce
from repro.pivot.pivot_selection import select_pivot
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.ranking.base import RankingFunction
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.runtime import ExecutionContext
from repro.trim.base import Trimmer
from repro.trim.lex_trim import LexTrimmer
from repro.trim.minmax_trim import MinMaxTrimmer
from repro.trim.sum_adjacent_trim import SumAdjacentTrimmer

#: Cap on memoized candidate intervals per shard (mirrors the coordinator's
#: pivot-cache bound; evicted intervals are recomputed from the base).
DEFAULT_CANDIDATE_CACHE_LIMIT = 256

#: ``(status, payload, rows_used)`` — the cross-process result envelope.
TaskResult = tuple[str, Any, int]

Candidate = tuple[JoinQuery, Database, int]


def exact_trimmer_for(ranking: RankingFunction) -> Trimmer:
    """The exact trimming construction for a ranking (mirrors the engine's
    ``exact-pivot`` dispatch; the parallel path only runs exact pivoting)."""
    if isinstance(ranking, (MinRanking, MaxRanking)):
        return MinMaxTrimmer(ranking)
    if isinstance(ranking, LexRanking):
        return LexTrimmer(ranking)
    if isinstance(ranking, SumRanking):
        return SumAdjacentTrimmer(ranking)
    raise RankingError(
        f"no exact trimming construction is known for {ranking.describe()}"
    )


@dataclass
class _ShardState:
    """Everything one worker process keeps for one shard."""

    query: JoinQuery
    base_db: Database  # the shard database after full semijoin reduction
    ranking: RankingFunction
    trimmer: Trimmer
    total: int
    var_order: tuple[str, ...]
    tree_cache: TreeCache = field(default_factory=TreeCache)
    candidates: dict[WeightInterval, Candidate] = field(default_factory=dict)
    cache_limit: int = DEFAULT_CANDIDATE_CACHE_LIMIT


#: Shard states of this worker process, keyed by the coordinator-assigned id.
_SHARD_STATES: dict[int, _ShardState] = {}


# ---------------------------------------------------------------------- #
# Task entry point (must stay module-level: it is pickled by reference)
# ---------------------------------------------------------------------- #
def run_shard_task(
    state_key: int,
    op: str,
    payload: Any,
    guards: tuple[float | None, int | None] | None,
) -> TaskResult:
    """Dispatch one shard operation under optional per-task guards.

    ``guards`` is ``(remaining_seconds, row_budget)`` — the coordinator's
    remaining deadline and this worker's slice of the row budget.  The task
    runs inside its own :class:`~repro.runtime.ExecutionContext`; a tripped
    budget or observed cancellation returns a typed envelope instead of
    raising through pickle.
    """
    try:
        if guards is not None and (guards[0] is not None or guards[1] is not None):
            with ExecutionContext(timeout=guards[0], max_rows=guards[1]) as context:
                result = _dispatch(state_key, op, payload)
            return ("ok", result, context.rows_used)
        return ("ok", _dispatch(state_key, op, payload), 0)
    except BudgetExceededError as exc:
        return ("budget", (str(exc), exc.budget, exc.checkpoint), 0)
    except ExecutionCancelledError as exc:
        return ("cancelled", (str(exc), exc.checkpoint), 0)
    except ReproError as exc:
        return ("error", (type(exc).__name__, str(exc)), 0)


def _dispatch(state_key: int, op: str, payload: Any) -> Any:
    if op == "init":
        return _init_shard(state_key, payload)
    if op == "close":
        _SHARD_STATES.pop(state_key, None)
        return None
    if op not in ("pivot", "counts", "terminal"):
        raise ReproError(f"unknown shard operation {op!r}")
    state = _SHARD_STATES.get(state_key)
    if state is None:
        raise ReproError(
            f"shard state {state_key} is not initialized in this worker"
        )
    if op == "pivot":
        return _propose_pivot(state, payload)
    if op == "counts":
        interval, pivot_weight = payload
        return _partition_counts(state, interval, pivot_weight)
    interval = payload
    return _terminal_answers(state, interval)


def crash_for_tests() -> None:  # pragma: no cover - kills the process
    """Hard-kill the worker process (used by crash-degradation tests)."""
    os._exit(1)


# ---------------------------------------------------------------------- #
# Operations
# ---------------------------------------------------------------------- #
def _init_shard(state_key: int, payload: dict[str, Any]) -> tuple[int, int]:
    """Rebuild the shard database, reduce it, count it.

    Returns ``(answer count, reduced database size)``.  The unreduced shard
    is dropped immediately — like the serial engine, everything downstream
    (trims, pivots, terminal enumeration) restarts from the reduced base.
    """
    query = JoinQuery(
        [Atom(name, variables) for name, variables in payload["atoms"]]
    )
    relations = []
    # repro-analysis: allow RPR001 -- O(atoms) rebuild; reduce/count below checkpoint per relation
    for name, (schema, columns) in payload["relations"].items():
        length = len(columns[0]) if columns else 0
        store = ColumnStore.from_columns(columns, length=length)
        relations.append(Relation.from_store(name, schema, store))
    db = Database(relations)
    tree_cache = TreeCache()
    tree = tree_cache.get(query, db)
    reduced = full_reduce(query, db, tree=tree)
    total = count_from_tree(tree_cache.get(query, reduced))
    ranking: RankingFunction = payload["ranking"]
    state = _ShardState(
        query=query,
        base_db=reduced,
        ranking=ranking,
        trimmer=exact_trimmer_for(ranking),
        total=total,
        var_order=tuple(sorted(query.variables)),
        tree_cache=tree_cache,
    )
    state.candidates[WeightInterval()] = (query, reduced, total)
    _SHARD_STATES[state_key] = state
    return total, reduced.size


def _candidate(state: _ShardState, interval: WeightInterval) -> Candidate:
    """The (query, database, count) candidate triple for one interval.

    Cached per interval; on a cache miss (including eviction past the cap)
    the candidate is re-trimmed from the reduced base — exactly how the
    serial loop derives its current candidate set, so shard-local candidates
    agree with what a serial run restricted to this shard would hold.
    """
    entry = state.candidates.get(interval)
    if entry is not None:
        return entry
    trimmed = state.trimmer.trim_interval(state.query, state.base_db, interval)
    count = count_answers(
        trimmed.query,
        trimmed.database,
        tree=state.tree_cache.get(trimmed.query, trimmed.database),
    )
    entry = (trimmed.query, trimmed.database, count)
    if len(state.candidates) < state.cache_limit or interval in state.candidates:
        state.candidates[interval] = entry
    return entry


def _propose_pivot(
    state: _ShardState, interval: WeightInterval
) -> tuple[Any, dict[str, Any], float] | None:
    """Propose this shard's c-pivot for the interval, or ``None`` if empty."""
    query, db, count = _candidate(state, interval)
    if count == 0:
        return None
    pivot = select_pivot(
        query, db, state.ranking, tree=state.tree_cache.get(query, db)
    )
    return pivot.weight, pivot.assignment, pivot.c


def _partition_counts(
    state: _ShardState, interval: WeightInterval, pivot_weight: Any
) -> tuple[int, int]:
    """Count this shard's candidates strictly below / above ``pivot_weight``.

    Both partitions are trimmed from the reduced base restricted to the full
    accumulated interval (never from a previous trim's output), mirroring
    the serial loop, and cached so the next round's pivot proposal reuses
    them.
    """
    lt_interval = interval.with_high(pivot_weight, strict=True)
    gt_interval = interval.with_low(pivot_weight, strict=True)
    _, _, count_lt = _candidate(state, lt_interval)
    _, _, count_gt = _candidate(state, gt_interval)
    return count_lt, count_gt


def _terminal_answers(
    state: _ShardState, interval: WeightInterval
) -> tuple[list[Any], list[list[Any]]]:
    """This shard's remaining candidates, weight-sorted, as columns.

    Answers travel as the sorted weight column plus one value column per
    ``var_order`` variable — flat lists, never per-answer objects — so the
    coordinator merges K sorted runs with one stable argsort.
    """
    query, db, _ = _candidate(state, interval)
    weights, columns = evaluate_sorted(
        query,
        db,
        state.ranking,
        tree=state.tree_cache.get(query, db),
        keep=state.var_order,
    )
    return weights, [columns[variable] for variable in state.var_order]


__all__ = [
    "DEFAULT_CANDIDATE_CACHE_LIMIT",
    "TaskResult",
    "exact_trimmer_for",
    "run_shard_task",
    "crash_for_tests",
]
