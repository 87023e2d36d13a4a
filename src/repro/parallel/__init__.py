"""Sharded parallel execution: hash-partitioned Yannakakis + mergeable ranks.

The package splits a φ-quantile computation across K processes:

* :mod:`~repro.parallel.planner` hash-partitions the database into K
  disjoint sub-databases (anchor on the largest relation, route or
  broadcast the rest along the join tree);
* :mod:`~repro.parallel.worker` holds the serial engine's local candidate
  source — semijoin reduction, subtree counting, trimming, pivot proposal —
  over one shard inside a worker process;
* :mod:`~repro.parallel.pool` pins shard ``s`` to process lane ``s`` (or
  runs everything inline for deterministic tests);
* :mod:`~repro.parallel.merger` is the candidate source that feeds the one
  pivoting loop (:func:`repro.core.quantile.run_pivoting`) K-way sums of the
  shards' candidate counts — rank counts over disjoint shards are mergeable
  summaries, so the answer is bit-identical to the serial path.

This module must not import :mod:`repro.engine` (the engine imports us).
"""

from repro.parallel.merger import ParallelSession, RankMerger
from repro.parallel.planner import (
    DEFAULT_BROADCAST_THRESHOLD,
    ShardPlan,
    ShardPlanner,
    default_shard_count,
    resolve_shard_count,
    stable_shard_hash,
)
from repro.parallel.pool import (
    PARALLEL_MODE_ENV_VAR,
    InlinePool,
    WorkerPool,
    create_pool,
)
from repro.parallel.worker import run_shard_task

__all__ = [
    "DEFAULT_BROADCAST_THRESHOLD",
    "InlinePool",
    "PARALLEL_MODE_ENV_VAR",
    "ParallelSession",
    "RankMerger",
    "ShardPlan",
    "ShardPlanner",
    "WorkerPool",
    "create_pool",
    "default_shard_count",
    "resolve_shard_count",
    "run_shard_task",
    "stable_shard_hash",
]
