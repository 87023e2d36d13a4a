"""The exact MIN/MAX/LEX trims as predicate trimmings (Definition 3.2).

Generative, over ``tests/conftest.py::join_instances`` with a hostile value
set — 0 / 0.0 / -0.0 and 1 / True ties, duplicates, a big int, ±inf — and
thresholds drawn from the answers' own weights, so bounds land on ties:

* the trimmed answers, projected to the original variables, are exactly the
  brute-force answers whose weight is inside the interval, each once;
* ``MinMaxTrimmer.trim_interval`` (one pass, the every-variable bound met
  into each partition) equals the composition of the two single-inequality
  trims relation for relation: name, schema, rows, row order, value objects.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.query.predicates import WeightInterval
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.trim.base import Trimmer
from repro.trim.lex_trim import LexTrimmer
from repro.trim.minmax_trim import MinMaxTrimmer

from tests.conftest import VALUES, join_instances

HOSTILE = VALUES + [True, 2**63 + 11, math.inf, -math.inf]
THRESHOLDS = sorted({float(value) for value in HOSTILE} | {0.25, 1.5})



def draw_interval(data, query, db, ranking, arbitrary):
    """An interval whose ends are ``None``, an answer's own weight (what
    Algorithm 1 sends: pivots are answers) or an arbitrary threshold."""
    weights = sorted({ranking.weight_of(a) for a in query.answers_brute_force(db)})
    end = st.none() | arbitrary
    if weights:
        end |= st.sampled_from(weights)
    return WeightInterval(
        data.draw(end), data.draw(end), data.draw(st.booleans()), data.draw(st.booleans())
    )


def answer_key(answer, variables):
    # repr, not the value: 0, 0.0 and -0.0 are equal but not the same answer.
    return tuple(repr(answer[variable]) for variable in variables)


def assert_bijection(query, db, ranking, interval, trimmed):
    """Def. 3.2: dropping the helper variables maps the trimmed answers one
    to one onto the original answers inside the interval (as bags: relations
    with duplicate rows have duplicate answers)."""
    variables = sorted(query.variables)
    assert set(variables) <= trimmed.query.variables
    assert trimmed.query.variables - set(variables) == trimmed.helper_variables
    expected = Counter(
        answer_key(answer, variables)
        for answer in query.answers_brute_force(db)
        if interval.contains(ranking.weight_of(answer))
    )
    got = Counter(
        answer_key(answer, variables)
        for answer in trimmed.query.answers_brute_force(trimmed.database)
    )
    assert got == expected


def assert_same_trim(one_pass, composed):
    assert one_pass.query == composed.query
    assert one_pass.helper_variables == composed.helper_variables
    for atom in composed.query:
        ours, theirs = one_pass.database[atom.relation], composed.database[atom.relation]
        assert ours.schema == theirs.schema
        # repr, not ==: 0, 0.0 and -0.0 are equal but not the same row.
        assert repr(ours.rows) == repr(theirs.rows)


@settings(max_examples=400, deadline=None)
@given(
    instance=join_instances(values=HOSTILE),
    ranking_cls=st.sampled_from([MinRanking, MaxRanking]),
    data=st.data(),
)
def test_minmax_interval_is_the_composed_trims_and_a_bijection(instance, ranking_cls, data):
    query, db, drawn = instance
    ranking = ranking_cls(drawn.weighted_variables)
    trimmer = MinMaxTrimmer(ranking)
    interval = draw_interval(data, query, db, ranking, st.sampled_from(THRESHOLDS))
    trimmed = trimmer.trim_interval(query, db, interval)
    assert_same_trim(trimmed, Trimmer.trim_interval(trimmer, query, db, interval))
    assert_bijection(query, db, ranking, interval, trimmed)


@settings(max_examples=400, deadline=None)
@given(instance=join_instances(values=HOSTILE), data=st.data())
def test_lex_interval_is_a_bijection(instance, data):
    query, db, drawn = instance
    ranking = LexRanking(drawn.weighted_variables)
    arbitrary = st.tuples(*[st.sampled_from(THRESHOLDS)] * ranking.arity)
    interval = draw_interval(data, query, db, ranking, arbitrary)
    trimmed = LexTrimmer(ranking).trim_interval(query, db, interval)
    assert_bijection(query, db, ranking, interval, trimmed)
