"""Yannakakis evaluation: full reduction and materialization."""

import random
import sys

from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.counting import count_answers
from repro.joins.message_passing import MaterializedTree
from repro.joins.yannakakis import evaluate, full_reduce
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery


def answer_set(answers):
    return {tuple(sorted(a.items())) for a in answers}


def test_figure1_answers_match_brute_force(figure1_query, figure1_db):
    fast = evaluate(figure1_query, figure1_db)
    slow = figure1_query.answers_brute_force(figure1_db)
    assert len(fast) == 13
    assert answer_set(fast) == answer_set(slow)


def test_limit_caps_output(figure1_query, figure1_db):
    assert len(evaluate(figure1_query, figure1_db, limit=5)) == 5


def test_empty_result(figure1_query, figure1_db):
    db = Database([Relation(r.name, r.schema, []) if r.name == "U" else r for r in figure1_db])
    assert evaluate(figure1_query, db) == []


def test_full_reduce_removes_dangling():
    query = JoinQuery([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    db = Database(
        [
            Relation("R", ("a", "b"), [(1, 1), (2, 99)]),
            Relation("S", ("a", "b"), [(1, 5), (77, 6)]),
        ]
    )
    reduced = full_reduce(query, db)
    assert sorted(reduced["R"].rows) == [(1, 1)]
    assert sorted(reduced["S"].rows) == [(1, 5)]


def test_full_reduce_preserves_answers(three_path):
    query, db = three_path
    reduced = full_reduce(query, db)
    assert count_answers(query, reduced) == count_answers(query, db)
    # Every remaining tuple participates in some answer: re-reducing changes nothing.
    again = full_reduce(query, reduced)
    for relation in reduced:
        assert sorted(again[relation.name].rows) == sorted(relation.rows)


def test_evaluate_binary_join(binary_join):
    query, db = binary_join
    fast = evaluate(query, db)
    slow = query.answers_brute_force(db)
    assert answer_set(fast) == answer_set(slow)


def test_evaluate_accepts_shared_tree(figure1_query, figure1_db):
    tree = MaterializedTree(figure1_query, figure1_db)
    with_tree = evaluate(figure1_query, figure1_db, tree=tree)
    without = evaluate(figure1_query, figure1_db)
    assert answer_set(with_tree) == answer_set(without)


def test_limit_zero_and_negative(figure1_query, figure1_db):
    assert evaluate(figure1_query, figure1_db, limit=0) == []
    assert evaluate(figure1_query, figure1_db, limit=-1) == []


def test_deep_path_query_does_not_recurse():
    """Regression: the answer expansion used to recurse once per join-tree
    level, so a path query longer than Python's recursion limit crashed with
    RecursionError.  The iterative odometer enumeration has no such limit
    (checked here by running a 500-level path under a tightened limit)."""
    depth = 500
    atoms = [Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in range(depth)]
    query = JoinQuery(atoms)
    db = Database(
        [Relation(f"R{i}", (f"x{i}", f"x{i + 1}"), [(0, 0), (0, 1)][: 1 + (i == 0)])
         for i in range(depth)]
    )
    # R0 has rows (0,0) and (0,1); x1 must be 0 to continue the path, so the
    # (0,1) row of R0 is dangling and exactly one answer survives.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(_inspect_stack_depth()) + depth - 50)
    try:
        answers = evaluate(query, db)
    finally:
        sys.setrecursionlimit(limit)
    assert len(answers) == 1
    assert all(answers[0][f"x{i}"] == 0 for i in range(depth + 1))


def _inspect_stack_depth():
    """Current Python frames (the recursion limit counts from the bottom)."""
    import inspect

    return inspect.stack(0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rows=st.integers(min_value=0, max_value=10),
    domain=st.integers(min_value=1, max_value=4),
)
def test_star_query_matches_brute_force(seed, rows, domain):
    rng = random.Random(seed)
    query = JoinQuery(
        [Atom("R1", ("h", "a")), Atom("R2", ("h", "b")), Atom("R3", ("h", "c"))]
    )
    db = Database(
        [
            Relation(
                name, ("h", var),
                [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)],
            )
            for name, var in (("R1", "a"), ("R2", "b"), ("R3", "c"))
        ]
    )
    assert answer_set(evaluate(query, db)) == answer_set(query.answers_brute_force(db))
    assert count_answers(query, db) == len(query.answers_brute_force(db))
