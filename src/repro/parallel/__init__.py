"""Sharded parallel execution: hash-partitioned Yannakakis + mergeable ranks.

The package splits the φ-quantile computation of a SUM whose weighted
variables need two adjacent atoms across K processes (MIN, MAX, LEX and a
one-atom SUM bisect keys serially: shard-local key indices do not merge):

* :mod:`~repro.parallel.planner` hash-partitions the database into K
  disjoint sub-databases (every atom holding the partition variable is
  hashed on it, every other atom is broadcast);
* :mod:`~repro.parallel.worker` holds the serial engine's exact SUM source,
  :class:`~repro.core.quantile.CoverCounting`, over one semijoin-reduced
  shard inside a worker process;
* :mod:`~repro.parallel.pool` pins shard ``s`` to process lane ``s`` (or
  runs everything inline for deterministic tests);
* :mod:`~repro.parallel.merger` is the candidate source that feeds the one
  pivoting loop (:func:`repro.core.quantile.run_pivoting`) K-way sums of the
  shards' counts below and above a fold and their merged terminal pairs —
  rank counts over disjoint shards are mergeable summaries, so the answer's
  weight and rank are bit-identical to the serial path's.

This module must not import :mod:`repro.engine` (the engine imports us).
"""

from repro.parallel.merger import ParallelSession, RankMerger
from repro.parallel.planner import (
    ShardPlan,
    ShardPlanner,
    resolve_shard_count,
    stable_shard_hash,
)
from repro.parallel.pool import InlinePool, WorkerPool, create_pool
from repro.parallel.worker import run_shard_task

__all__ = [
    "InlinePool",
    "ParallelSession",
    "RankMerger",
    "ShardPlan",
    "ShardPlanner",
    "WorkerPool",
    "create_pool",
    "resolve_shard_count",
    "run_shard_task",
    "stable_shard_hash",
]
