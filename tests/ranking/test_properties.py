"""Property-based tests: subset-monotonicity and aggregation laws.

Subset-monotonicity (Section 2.2) is the assumption the generic pivot
algorithm relies on: if ``agg(L1) <= agg(L2)`` then
``agg(L ⊎ L1) <= agg(L ⊎ L2)`` for every multiset ``L``.  All rankings shipped
with the library must satisfy it.
"""

from hypothesis import given, strategies as st

from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking

VARIABLES = ["v0", "v1", "v2", "v3"]

values = st.integers(min_value=-50, max_value=50)
assignments = st.dictionaries(st.sampled_from(VARIABLES), values)


def rankings():
    return [
        SumRanking(VARIABLES),
        MinRanking(VARIABLES),
        MaxRanking(VARIABLES),
        LexRanking(VARIABLES),
    ]


@given(weights1=st.lists(values, max_size=5), weights2=st.lists(values, max_size=5),
       extra=st.lists(values, max_size=5))
def test_subset_monotonicity_of_aggregates(weights1, weights2, extra):
    """agg(L1) <= agg(L2) implies agg(L + L1) <= agg(L + L2)."""
    for ranking in [SumRanking(["v0"]), MinRanking(["v0"]), MaxRanking(["v0"])]:
        lifted1 = [ranking.variable_weight("v0", v) for v in weights1]
        lifted2 = [ranking.variable_weight("v0", v) for v in weights2]
        lifted_extra = [ranking.variable_weight("v0", v) for v in extra]
        left, right = ranking.aggregate(lifted1), ranking.aggregate(lifted2)
        if left <= right:
            assert ranking.aggregate(lifted_extra + lifted1) <= ranking.aggregate(
                lifted_extra + lifted2
            )


@given(assignment=assignments, extra_var=st.sampled_from(VARIABLES), extra_value=values)
def test_adding_a_variable_is_combine(assignment, extra_var, extra_value):
    """weight(q ∪ {x:v}) == combine(weight(q), w_x(v)) when x is new."""
    for ranking in rankings():
        if extra_var in assignment:
            continue
        extended = dict(assignment)
        extended[extra_var] = extra_value
        expected = ranking.combine(
            ranking.weight_of(assignment), ranking.variable_weight(extra_var, extra_value)
        )
        assert ranking.weight_of(extended) == expected


@given(values_list=st.lists(values, min_size=1, max_size=6))
def test_aggregate_matches_python_builtin(values_list):
    """SUM/MIN/MAX aggregates agree with Python's sum/min/max on floats."""
    floats = [float(v) for v in values_list]
    assert SumRanking(["v0"]).aggregate(floats) == sum(floats)
    assert MinRanking(["v0"]).aggregate(floats) == min(floats)
    assert MaxRanking(["v0"]).aggregate(floats) == max(floats)


@given(a=st.tuples(values, values), b=st.tuples(values, values), c=st.tuples(values, values))
def test_lex_combine_preserves_order(a, b, c):
    """Element-wise addition preserves lexicographic comparisons (the LEX
    instance of subset-monotonicity)."""
    ranking = LexRanking(["v0", "v1"])
    fa, fb, fc = (tuple(float(x) for x in t) for t in (a, b, c))
    if fa <= fb:
        assert ranking.combine(fc, fa) <= ranking.combine(fc, fb)
