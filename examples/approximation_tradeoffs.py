#!/usr/bin/env python
"""Approximation trade-offs for a conditionally intractable SUM query.

Full SUM over a 3-atom path query is conditionally intractable for exact
quasilinear evaluation (Theorem 5.6 / the 3SUM hypothesis), so the library
offers two approximations:

* the deterministic ε-approximation of Theorem 6.2 (pivoting with ε-lossy
  trimming), and
* the randomized sampling scheme of Section 3.1 (Hoeffding bounds).

This example sweeps ε for both, measures wall-clock time, and — because the
instance is small enough — also materializes the ground truth to report the
*observed* rank error of each returned answer.

Run with:  python examples/approximation_tradeoffs.py
"""

from __future__ import annotations

import time

from repro import Engine, IntractableQueryError, SumRanking
from repro.baselines import answer_weights
from repro.bench.harness import observed_rank_error
from repro.workloads.path import path_workload


def main() -> None:
    workload = path_workload(
        num_atoms=3,
        tuples_per_relation=250,
        join_domain=25,
        ranking=SumRanking(["x1", "x2", "x3", "x4"]),
        seed=7,
    )
    phi = 0.5
    print(f"query    : {workload.query}")
    print(f"ranking  : {workload.ranking.describe()} (full SUM, 3 atoms)")
    print(f"db size  : {workload.database_size} tuples")
    engine = Engine(workload.db)

    # Asking for an exact answer raises: the query is conditionally intractable.
    try:
        engine.quantile(workload.query, workload.ranking, phi)
    except IntractableQueryError as error:
        print(f"exact    : refused ({str(error).splitlines()[0][:70]}...)")
    print()

    # Ground truth for error measurement (only feasible because n is small).
    weights = answer_weights(workload.query, workload.db, workload.ranking)
    total = len(weights)
    target = min(total - 1, int(phi * total))
    print(f"answers  : {total} (ground truth materialized only to measure errors)")
    print()
    print(f"{'epsilon':>8} {'method':>14} {'seconds':>9} {'weight':>9} {'rank error':>11}")
    for epsilon in (0.4, 0.2, 0.1, 0.05):
        for strategy in ("approx-pivot", "sampling"):
            start = time.perf_counter()
            result = engine.quantile(
                workload.query,
                workload.ranking,
                phi,
                epsilon=epsilon,
                strategy="auto" if strategy == "approx-pivot" else "sampling",
                seed=42,
            )
            elapsed = time.perf_counter() - start
            error = observed_rank_error(weights, result.weight, target)
            print(
                f"{epsilon:>8} {result.strategy:>14} {elapsed:>9.3f} "
                f"{result.weight:>9.1f} {error:>11.4f}"
            )
    print()
    print("Both methods stay well within their epsilon guarantee; the")
    print("deterministic scheme needs no randomness and no failure probability.")


if __name__ == "__main__":
    main()
