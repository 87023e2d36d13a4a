"""Per-shard worker: the serial cover-pair source over one shard.

Each shard process holds a :class:`_ShardState` — a
:class:`~repro.core.quantile.CoverCounting` over the rebuilt canonical query
and the shard's Yannakakis-reduced database (the very class the serial
engine pivots over, built lazily on its first pivot as it is serially) —
and answers the operations shipped by the coordinator through
:func:`run_shard_task`; a handle is the source's own pair of fold bounds:

* ``init``    — build the shard from flat column payloads, reduce, count;
* ``pivot``   — the shard's weighted-median fold and its decoded answer;
* ``counts``  — how many candidates fold strictly below / above a fold;
* ``terminal``— the candidates' sorted (fold, answers, R row, S row) pairs;
* ``decode``  — the (weight, answer) of one (R row, S row) pair.

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
from dataclasses import dataclass
from typing import Any

from repro.core.quantile import CoverCounting, CoverHandle
from repro.data.columns import ColumnStore
from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import (
    BudgetExceededError,
    ExecutionCancelledError,
    ReproError,
    SolverError,
)
from repro.joins.counting import count_answers
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import full_reduce
from repro.query.atom import Atom
from repro.query.classify import find_adjacent_cover
from repro.query.join_query import JoinQuery
from repro.runtime import ExecutionContext

#: ``(status, payload, rows_used)`` — the cross-process result envelope.
TaskResult = tuple[str, Any, int]


@dataclass
class _ShardState:
    """Everything one worker process keeps for one shard: its source and
    the ranges of the last handle asked about (a round's pivot and counts
    read the same ones)."""

    source: CoverCounting  # over the shard database after full reduction
    last: tuple[CoverHandle, list[Any]] | None = None

    def ranges(self, handle: CoverHandle) -> list[Any]:
        if self.last is None or self.last[0] != handle:
            self.last = handle, self.source.ranges(handle)
        return self.last[1]


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
    (the cover's rows, pivots, terminal pairs) starts from the reduced base.
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
    total = count_answers(query, reduced, tree=tree_cache.get(query, reduced))
    cover = find_adjacent_cover(query, frozenset(ranking.weighted_variables))
    if cover is None or len(cover[1]) != 2:
        raise SolverError(f"{ranking.describe()} has no cover pair to shard")
    source = CoverCounting(query, reduced, ranking, tree_cache, total, cover)
    _SHARD_STATES[state_key] = _ShardState(source)
    return total, reduced.size


def _propose_pivot(state: _ShardState, handle: CoverHandle) -> tuple[Any, Any, dict[str, Any]]:
    """(fold, weight, answer) of this shard's pivot among ``handle``'s candidates."""
    fold, pair = state.source.median(state.ranges(handle))
    return (fold, *state.source.decode(pair))


def _partition_counts(state: _ShardState, payload: tuple[CoverHandle, Any]) -> tuple[int, int]:
    """Count this shard's candidates folding strictly below / above a fold."""
    handle, fold = payload
    return state.source.split(state.ranges(handle), fold)


_OPERATIONS: dict[str, Callable[[_ShardState, Any], Any]] = {
    "pivot": _propose_pivot,
    "counts": _partition_counts,
    "terminal": lambda state, handle: state.source.pairs(handle),
    "decode": lambda state, pair: state.source.decode(pair),
}

__all__ = [
    "TaskResult",
    "run_shard_task",
    "crash_for_tests",
]
