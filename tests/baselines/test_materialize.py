"""The materialize-and-sort baseline (correctness oracle and fallback)."""

import pytest

from repro.baselines.materialize import answer_weights, materialize_quantile
from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import EmptyResultError
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.minmax import MinRanking
from repro.ranking.sum import SumRanking

from tests.conftest import brute_force_weights


def test_answer_weights_match_brute_force(three_path):
    query, db = three_path
    ranking = SumRanking(["x1", "x2", "x3", "x4"])
    assert answer_weights(query, db, ranking) == brute_force_weights(query, db, ranking)


def test_quantile_is_sorted_position(figure1_query, figure1_db):
    ranking = SumRanking(["x1", "x2", "x3", "x4", "x5"])
    weights = brute_force_weights(figure1_query, figure1_db, ranking)
    for phi in (0.0, 0.5, 1.0):
        result = materialize_quantile(figure1_query, figure1_db, ranking, phi=phi)
        target = min(len(weights) - 1, int(phi * len(weights)))
        assert result.weight == weights[target]
        assert result.strategy == "materialize"
        assert result.exact


def test_selection_by_index(figure1_query, figure1_db):
    ranking = MinRanking(["x3", "x5"])
    weights = brute_force_weights(figure1_query, figure1_db, ranking)
    result = materialize_quantile(figure1_query, figure1_db, ranking, index=3)
    assert result.weight == weights[3]


def test_index_out_of_range(figure1_query, figure1_db):
    ranking = MinRanking(["x3"])
    with pytest.raises(ValueError):
        materialize_quantile(figure1_query, figure1_db, ranking, index=13)


def test_phi_and_index_exclusive(figure1_query, figure1_db):
    ranking = MinRanking(["x3"])
    with pytest.raises(ValueError):
        materialize_quantile(figure1_query, figure1_db, ranking)
    with pytest.raises(ValueError):
        materialize_quantile(figure1_query, figure1_db, ranking, phi=0.5, index=1)


def test_empty_result(figure1_query, figure1_db):
    db = Database([Relation(r.name, r.schema, []) if r.name == "R" else r for r in figure1_db])
    with pytest.raises(EmptyResultError):
        materialize_quantile(figure1_query, db, MinRanking(["x3"]), phi=0.5)


def test_cyclic_query_supported():
    triangle = JoinQuery(
        [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
    )
    db = Database(
        [
            Relation("R", ("a", "b"), [(1, 2), (4, 5)]),
            Relation("S", ("a", "b"), [(2, 3), (5, 6)]),
            Relation("T", ("a", "b"), [(3, 1), (6, 4)]),
        ]
    )
    ranking = SumRanking(["x", "y", "z"])
    result = materialize_quantile(triangle, db, ranking, phi=0.0)
    assert result.weight == 6.0
    assert result.total_answers == 2
