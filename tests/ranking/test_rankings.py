"""Unit tests for the concrete ranking functions (SUM, MIN, MAX, LEX)."""

import math

import pytest

from repro.exceptions import RankingError
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking


class TestSumRanking:
    def test_full_assignment(self):
        ranking = SumRanking(["a", "b", "c"])
        assert ranking.weight_of({"a": 1, "b": 2, "c": 3}) == 6.0

    def test_partial_assignment_ignores_missing(self):
        ranking = SumRanking(["a", "b", "c"])
        assert ranking.weight_of({"a": 1, "c": 3}) == 4.0

    def test_non_weighted_variables_ignored(self):
        ranking = SumRanking(["a"])
        assert ranking.weight_of({"a": 1, "z": 100}) == 1.0

    def test_custom_weight_functions(self):
        ranking = SumRanking(["a", "b"], weights={"a": lambda v: 10 * v})
        assert ranking.weight_of({"a": 2, "b": 3}) == 23.0

    def test_identity_and_combine(self):
        ranking = SumRanking(["a"])
        assert ranking.identity == 0.0
        assert ranking.combine(2.0, 3.5) == 5.5
        assert ranking.aggregate([1.0, 2.0, 3.0]) == 6.0

    def test_validate_for(self):
        ranking = SumRanking(["a", "missing"])
        with pytest.raises(RankingError):
            ranking.validate_for({"a", "b"})

    def test_duplicate_variables_rejected(self):
        with pytest.raises(RankingError):
            SumRanking(["a", "a"])

    def test_empty_variables_rejected(self):
        with pytest.raises(RankingError):
            SumRanking([])

    def test_unknown_weight_function_rejected(self):
        with pytest.raises(RankingError):
            SumRanking(["a"], weights={"b": lambda v: v})

    def test_describe(self):
        assert SumRanking(["a", "b"]).describe() == "SUM(a, b)"


class TestMinMaxRanking:
    def test_min(self):
        ranking = MinRanking(["a", "b", "c"])
        assert ranking.weight_of({"a": 5, "b": 2, "c": 9}) == 2.0

    def test_max(self):
        ranking = MaxRanking(["a", "b", "c"])
        assert ranking.weight_of({"a": 5, "b": 2, "c": 9}) == 9.0

    def test_partial_assignments(self):
        assert MinRanking(["a", "b"]).weight_of({"a": 5}) == 5.0
        assert MaxRanking(["a", "b"]).weight_of({"b": -2}) == -2.0

    def test_identities_are_neutral(self):
        assert MinRanking(["a"]).identity == math.inf
        assert MaxRanking(["a"]).identity == -math.inf

    def test_weight_functions(self):
        ranking = MaxRanking(["a", "b"], weights={"b": lambda v: -v})
        assert ranking.weight_of({"a": 1, "b": 5}) == 1.0

    def test_combine(self):
        assert MinRanking(["a"]).combine(3.0, 4.0) == 3.0
        assert MaxRanking(["a"]).combine(3.0, 4.0) == 4.0


class TestLexRanking:
    def test_full_assignment(self):
        ranking = LexRanking(["a", "b"])
        assert ranking.weight_of({"a": 2, "b": 9}) == (2.0, 9.0)

    def test_partial_assignment_pads_with_zero(self):
        ranking = LexRanking(["a", "b"])
        assert ranking.weight_of({"b": 9}) == (0.0, 9.0)

    def test_priority_order_matters(self):
        ranking = LexRanking(["b", "a"])
        assert ranking.weight_of({"a": 2, "b": 9}) == (9.0, 2.0)

    def test_comparison_is_lexicographic(self):
        ranking = LexRanking(["a", "b"])
        small = ranking.weight_of({"a": 1, "b": 100})
        large = ranking.weight_of({"a": 2, "b": 0})
        assert small < large

    def test_key_functions(self):
        ranking = LexRanking(["a"], keys={"a": lambda v: -v})
        assert ranking.weight_of({"a": 3}) == (-3.0,)

    def test_identity(self):
        ranking = LexRanking(["a", "b"])
        assert ranking.identity == (0.0, 0.0)

    def test_combine_elementwise(self):
        ranking = LexRanking(["a", "b"])
        assert ranking.combine((1.0, 2.0), (3.0, 4.0)) == (4.0, 6.0)

    def test_arity(self):
        assert LexRanking(["a", "b", "c"]).arity == 3


class TestWeightsMustBeNumbers:
    RANKINGS = [SumRanking(["a"]), MinRanking(["a"]), MaxRanking(["a"]), LexRanking(["a"])]

    @pytest.mark.parametrize("ranking", RANKINGS, ids=lambda r: r.name)
    @pytest.mark.parametrize(
        "value", ["foo", math.nan, "nan", None, 10**400],
        ids=["text", "nan", "nan-text", "none", "huge-int"],
    )
    def test_a_value_without_an_ordered_weight_is_a_ranking_error(self, ranking, value):
        with pytest.raises(RankingError, match=r"^a = "):
            ranking.variable_weight("a", value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, "-inf"])
    def test_infinities_are_weights(self, value):
        assert SumRanking(["a"]).variable_weight("a", value) == float(value)
        assert LexRanking(["a"]).key_of("a", value) == float(value)

    def test_a_weight_function_returning_nan_is_refused(self):
        with pytest.raises(RankingError):
            SumRanking(["a"], weights={"a": lambda v: math.nan}).variable_weight("a", 1)
