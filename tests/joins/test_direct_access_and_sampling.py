"""Direct access (answers by index) and uniform sampling."""

import random
from collections import Counter

import pytest

from repro.approx.randomized import SampledAnswers
from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import EmptyResultError
from repro.joins.direct_access import DirectAccess
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.sum import SumRanking


def answer_key(assignment):
    return tuple(sorted(assignment.items()))


class TestDirectAccess:
    def test_enumerates_all_answers_exactly_once(self, figure1_query, figure1_db):
        access = DirectAccess(figure1_query, figure1_db)
        assert len(access) == 13
        produced = {answer_key(access[i]) for i in range(len(access))}
        expected = {
            answer_key(a) for a in figure1_query.answers_brute_force(figure1_db)
        }
        assert produced == expected

    def test_every_index_is_a_real_answer(self, three_path):
        query, db = three_path
        access = DirectAccess(query, db)
        for index in random.Random(0).sample(range(len(access)), 25):
            assert query.satisfies(access[index], db)

    def test_negative_index(self, figure1_query, figure1_db):
        access = DirectAccess(figure1_query, figure1_db)
        assert answer_key(access[-1]) == answer_key(access[len(access) - 1])

    def test_out_of_range(self, figure1_query, figure1_db):
        access = DirectAccess(figure1_query, figure1_db)
        with pytest.raises(IndexError):
            access[13]
        with pytest.raises(IndexError):
            access[-14]

    def test_iteration(self, figure1_query, figure1_db):
        access = DirectAccess(figure1_query, figure1_db)
        assert len(list(access)) == 13

    def test_empty_query_result(self):
        query = JoinQuery([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
        db = Database(
            [Relation("R", ("a", "b"), [(1, 2)]), Relation("S", ("a", "b"), [(9, 9)])]
        )
        access = DirectAccess(query, db)
        assert len(access) == 0

    def test_cartesian_product_indexing(self):
        query = JoinQuery([Atom("A", ("x",)), Atom("B", ("y",))])
        db = Database(
            [
                Relation("A", ("x",), [(i,) for i in range(3)]),
                Relation("B", ("y",), [(i,) for i in range(4)]),
            ]
        )
        access = DirectAccess(query, db)
        assert len(access) == 12
        assert len({answer_key(access[i]) for i in range(12)}) == 12


def sampled(query, db, ranking, epsilon=0.2, seed=1):
    return SampledAnswers(DirectAccess(query, db), ranking, epsilon, seed, query.variables)


class TestSampledAnswers:
    def test_samples_are_answers(self, three_path):
        query, db = three_path
        source = sampled(query, db, SumRanking(["x1", "x4"]))
        for sample in source.samples:
            for _, answer in sample:
                assert query.satisfies(answer, db)

    def test_total_answers_exposed(self, figure1_query, figure1_db):
        assert sampled(figure1_query, figure1_db, SumRanking(["x3"])).total == 13

    def test_deterministic_with_seed(self, figure1_query, figure1_db):
        first = sampled(figure1_query, figure1_db, SumRanking(["x3"]), seed=7)
        second = sampled(figure1_query, figure1_db, SumRanking(["x3"]), seed=7)
        assert first.samples == second.samples

    def test_an_empty_join_draws_nothing(self):
        query = JoinQuery([Atom("R", ("x",))])
        db = Database([Relation("R", ("a",), [])])
        source = sampled(query, db, SumRanking(["x"]))
        assert source.samples == []
        with pytest.raises(EmptyResultError):
            source.answer(0.5, None)

    def test_sampling_is_roughly_uniform(self, figure1_query, figure1_db):
        """Chi-square style sanity check: every answer appears, none dominates."""
        source = sampled(figure1_query, figure1_db, SumRanking(["x3"]), epsilon=0.1, seed=123)
        draws = len(source.samples) * source.size
        counts = Counter(answer_key(answer) for sample in source.samples for _, answer in sample)
        assert len(counts) == 13  # every answer was seen
        expected = draws / 13
        for count in counts.values():
            assert 0.5 * expected < count < 1.6 * expected

    def test_each_repetition_is_sorted_by_weight(self, three_path):
        query, db = three_path
        ranking = SumRanking(["x1", "x4"])
        source = sampled(query, db, ranking)
        for sample in source.samples:
            weights = [weight for weight, _ in sample]
            assert weights == sorted(weights)
            assert weights == [ranking.weight_of(answer) for _, answer in sample]
