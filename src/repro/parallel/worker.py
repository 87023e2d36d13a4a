"""Per-shard worker: a local candidate source over one shard.

Each shard process holds a :class:`_ShardState` — a
:class:`~repro.core.quantile.LocalCandidates` over the rebuilt canonical
query and the shard's Yannakakis-reduced database (the very class the
serial engine pivots over), plus an interval-keyed candidate cache — and
answers four operations shipped by the coordinator through
:func:`run_shard_task`:

* ``init``    — build the shard from flat column payloads, reduce, count;
* ``pivot``   — propose a c-pivot among the shard's current candidates;
* ``counts``  — trim lt/gt partitions for a pivot weight and count them;
* ``terminal``— the remaining candidates as weight-sorted columns.

The coordinator (:class:`~repro.parallel.merger.RankMerger`) combines these
into the ``step``/``terminal`` of a candidate source for the one pivoting
loop, so sharding never forks the algorithm.  All results travel in a
``(status, payload, rows_used)`` envelope so typed errors (budget trips,
cancellation, empty shards) cross the process boundary without relying on
exception pickling.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.core.quantile import CappedCache, LocalCandidates, LocalHandle
from repro.data.columns import ColumnStore
from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import (
    BudgetExceededError,
    ExecutionCancelledError,
    ReproError,
)
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import full_reduce
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.runtime import ExecutionContext
from repro.trim import exact_trimmer_for

#: Cap on memoized candidate intervals per shard (mirrors the coordinator's
#: pivot-cache bound; evicted intervals are recomputed from the base).
DEFAULT_CANDIDATE_CACHE_LIMIT = 256

#: ``(status, payload, rows_used)`` — the cross-process result envelope.
TaskResult = tuple[str, Any, int]


@dataclass
class _ShardState:
    """Everything one worker process keeps for one shard."""

    source: LocalCandidates  # over the shard database after full reduction
    var_order: tuple[str, ...]
    candidates: CappedCache = field(
        default_factory=lambda: CappedCache(DEFAULT_CANDIDATE_CACHE_LIMIT)
    )


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
    operation = _OPERATIONS.get(op)
    if operation is None:
        raise ReproError(f"unknown shard operation {op!r}")
    state = _SHARD_STATES.get(state_key)
    if state is None:
        raise ReproError(
            f"shard state {state_key} is not initialized in this worker"
        )
    return operation(state, payload)


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
    reduced = full_reduce(query, db, tree=tree_cache.get(query, db))
    ranking = payload["ranking"]
    source = LocalCandidates(
        query, reduced, ranking, exact_trimmer_for(ranking), tree_cache
    )
    state = _ShardState(source, var_order=tuple(sorted(query.variables)))
    state.candidates[WeightInterval()] = (source.root, source.total)
    _SHARD_STATES[state_key] = state
    return source.total, reduced.size


def _candidate(state: _ShardState, interval: WeightInterval) -> tuple[LocalHandle, int]:
    """The ((query, database), count) candidate for one interval.

    Cached per interval; on a cache miss (including eviction past the cap)
    the candidate is re-trimmed from the reduced base — exactly how the
    serial loop derives its current candidate set, so shard-local candidates
    agree with what a serial run restricted to this shard would hold.
    """
    entry = state.candidates.get(interval)
    if entry is None:
        entry = state.candidates[interval] = state.source.candidate(interval)
    return entry


def _propose_pivot(
    state: _ShardState, interval: WeightInterval
) -> tuple[Any, dict[str, Any], float] | None:
    """Propose this shard's c-pivot for the interval, or ``None`` if empty."""
    handle, count = _candidate(state, interval)
    if count == 0:
        return None
    pivot = state.source.pivot(handle)
    return pivot.weight, pivot.assignment, pivot.c


def _partition_counts(
    state: _ShardState, payload: tuple[WeightInterval, Any]
) -> tuple[int, int]:
    """Count this shard's candidates strictly below / above a pivot weight.

    Both partitions are trimmed from the reduced base restricted to the full
    accumulated interval (never from a previous trim's output) and cached,
    so the next round's pivot proposal reuses them.
    """
    interval, pivot_weight = payload
    _, count_lt = _candidate(state, interval.with_high(pivot_weight, strict=True))
    _, count_gt = _candidate(state, interval.with_low(pivot_weight, strict=True))
    return count_lt, count_gt


def _terminal_answers(
    state: _ShardState, interval: WeightInterval
) -> tuple[list[Any], list[list[Any]]]:
    """This shard's remaining candidates, weight-sorted, as columns.

    Answers travel as the sorted weight column plus one value column per
    ``var_order`` variable — flat lists, never per-answer objects — so the
    coordinator merges K sorted runs with one stable argsort.
    """
    handle, _ = _candidate(state, interval)
    weights, columns = state.source.terminal(interval, handle, state.var_order).columns()
    return weights, [columns[variable] for variable in state.var_order]


_OPERATIONS: dict[str, Callable[[_ShardState, Any], Any]] = {
    "pivot": _propose_pivot,
    "counts": _partition_counts,
    "terminal": _terminal_answers,
}

__all__ = [
    "DEFAULT_CANDIDATE_CACHE_LIMIT",
    "TaskResult",
    "run_shard_task",
    "crash_for_tests",
]
