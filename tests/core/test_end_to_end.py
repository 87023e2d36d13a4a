"""Exact SUM through Algorithm 1's pivot steps: the solver vs the
brute-force oracle on fixtures with thousands of answers, and on two
self-joins.

Every strategy, entry point and ranking against an oracle is
``tests/test_lattice.py``; its tiny joins seldom pivot through the
adjacent-atoms SUM trim, and these fixtures always do.
"""

import random

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.minmax import MinRanking
from repro.ranking.sum import SumRanking

from tests.conftest import assert_valid_quantile, brute_force_weights, pivoting

PHIS = (0.0, 0.1, 0.5, 0.9, 1.0)


class TestExactOnFixtures:
    @pytest.mark.parametrize("phi", PHIS)
    def test_partial_sum_on_three_path(self, three_path, phi):
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3"])
        result = pivoting(query, db, ranking).quantile(phi)
        assert_valid_quantile(query, db, ranking, result, phi)

    @pytest.mark.parametrize("phi", PHIS)
    def test_full_sum_on_binary_join(self, binary_join, phi):
        query, db = binary_join
        ranking = SumRanking(["x1", "x2", "x3"])
        result = pivoting(query, db, ranking).quantile(phi)
        assert_valid_quantile(query, db, ranking, result, phi)

    def test_figure1_partial_sum_median(self, figure1_query, figure1_db):
        """SUM over {x1, x3} on the Figure 1 query: both variables live in the
        single atom S(x1, x3), so the exact pivoting strategy applies."""
        ranking = SumRanking(["x1", "x3"])
        result = pivoting(figure1_query, figure1_db, ranking).quantile(0.5)
        assert_valid_quantile(figure1_query, figure1_db, ranking, result, 0.5)

    def test_selection_matches_sorted_oracle(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x2", "x3"])
        weights = brute_force_weights(query, db, ranking)
        for index in (0, 1, len(weights) // 2, len(weights) - 1):
            result = pivoting(query, db, ranking).selection(index)
            below = sum(1 for w in weights if w < result.weight)
            at_most = sum(1 for w in weights if w <= result.weight)
            assert below <= index <= at_most - 1

    def test_social_network_median(self):
        from repro.workloads.social import social_network_workload

        workload = social_network_workload(
            num_admins=30, num_shares=60, num_attends=60, num_events=8, seed=3
        )
        result = pivoting(workload.query, workload.db, workload.ranking).quantile(0.1)
        assert_valid_quantile(workload.query, workload.db, workload.ranking, result, 0.1)


class TestSelfJoins:
    def test_self_join_min(self):
        query = JoinQuery([Atom("E", ("x", "y")), Atom("E", ("y", "z"))])
        db = Database(
            [Relation("E", ("a", "b"), [(1, 2), (2, 3), (2, 4), (3, 5), (4, 1)])]
        )
        ranking = MinRanking(["x", "z"])
        result = pivoting(query, db, ranking).quantile(0.5)
        assert_valid_quantile(query, db, ranking, result, 0.5)

    def test_self_join_sum(self):
        query = JoinQuery([Atom("E", ("x", "y")), Atom("E", ("y", "z"))])
        rng = random.Random(0)
        db = Database(
            [Relation("E", ("a", "b"), [(rng.randrange(8), rng.randrange(8)) for _ in range(30)])]
        )
        ranking = SumRanking(["x", "y", "z"])
        result = pivoting(query, db, ranking).quantile(0.25)
        assert_valid_quantile(query, db, ranking, result, 0.25)
