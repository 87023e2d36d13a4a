#!/usr/bin/env python
"""The paper's introduction example: statistics over a social network.

Three relations record involvement of users in events — Admin(u1, e),
Share(u2, e, l2), Attend(u3, e, l3) — and we want quantiles of l2 + l3 (total
likes) over all (admin, sharer, attendee) triples of the same event.  The join
result is much larger than the database, yet the partial-SUM ranking over
{l2, l3} falls on the tractable side of the Theorem 5.6 dichotomy, so the
quantiles are computed without materializing the join.

Run with:  python examples/social_network_stats.py
"""

from __future__ import annotations

from repro import Engine, MaxRanking, MinRanking
from repro.workloads.social import social_network_workload


def main() -> None:
    workload = social_network_workload(
        num_admins=400,
        num_shares=1500,
        num_attends=1500,
        num_events=60,
        seed=2023,
    )
    engine = Engine(workload.db)
    prepared = engine.prepare(workload.query, workload.ranking)
    plan = prepared.plan()
    total = prepared.count()

    print("Social network statistics (introduction example)")
    print(f"  query            : {workload.query}")
    print(f"  database size    : {workload.database_size} tuples")
    print(f"  join answers     : {total} user triples")
    print(f"  blow-up factor   : {total / workload.database_size:.1f}x")
    print(f"  ranking          : {workload.ranking.describe()}")
    print(f"  chosen strategy  : {plan.strategy}")
    print()

    print("Quantiles of total likes (l2 + l3) over all involved user triples:")
    for phi in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        result = prepared.quantile(phi)
        print(f"  {int(phi * 100):3d}th percentile: {result.weight:7.0f} likes "
              f"({result.iterations} pivoting iterations)")
    print()

    # The same data can be ranked differently without rebuilding anything:
    # e.g. the smaller / larger of the two like counts.
    for ranking in (MinRanking(["l2", "l3"]), MaxRanking(["l2", "l3"])):
        median = engine.quantile(workload.query, ranking, 0.5)
        print(f"median of {ranking.describe():14s}: {median.weight:7.0f} likes")


if __name__ == "__main__":
    main()
