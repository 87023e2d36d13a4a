"""Counting answers via message passing (Example 2.1 / Figure 1)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import CyclicQueryError
from repro.joins.counting import count_answers, count_from_tree, subtree_counts
from repro.joins.message_passing import MaterializedTree
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.join_tree import build_join_tree


def test_paper_figure1(figure1_query, figure1_db):
    """The running example of Figure 1 has exactly 13 answers."""
    assert count_answers(figure1_query, figure1_db) == 13


def test_paper_figure1_subtree_counts(figure1_query, figure1_db):
    """Figure 1(a): the R-tuples have 9 and 4 subtree answers, S/T/U as shown."""
    rooted = build_join_tree(figure1_query).rooted(root=0)
    tree = MaterializedTree(figure1_query, figure1_db, rooted=rooted)
    counts = subtree_counts(tree)
    r_counts = dict(zip(tree.rows(0), counts[0]))
    assert r_counts[(1, 1)] == 9
    assert r_counts[(2, 2)] == 4
    t_counts = dict(zip(tree.rows(2), counts[2]))
    assert t_counts[(1, 6)] == 2
    assert t_counts[(1, 7)] == 1
    assert t_counts[(2, 6)] == 2


def test_count_matches_brute_force(figure1_query, figure1_db):
    answers = figure1_query.answers_brute_force(figure1_db)
    assert count_answers(figure1_query, figure1_db) == len(answers)


def test_empty_relation_gives_zero(figure1_query, figure1_db):
    db = Database([Relation(r.name, r.schema, []) if r.name == "T" else r for r in figure1_db])
    assert count_answers(figure1_query, db) == 0


def test_dangling_tuples_do_not_count():
    query = JoinQuery([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    db = Database(
        [
            Relation("R", ("a", "b"), [(1, 1), (2, 99)]),  # (2, 99) dangles
            Relation("S", ("a", "b"), [(1, 5), (1, 6)]),
        ]
    )
    assert count_answers(query, db) == 2


def test_count_root_choice_invariant(figure1_query, figure1_db):
    for root in range(4):
        rooted = build_join_tree(figure1_query).rooted(root=root)
        tree = MaterializedTree(figure1_query, figure1_db, rooted=rooted)
        assert count_from_tree(tree) == 13


def test_cartesian_product_count():
    query = JoinQuery([Atom("A", ("x",)), Atom("B", ("y",))])
    db = Database(
        [Relation("A", ("x",), [(i,) for i in range(7)]),
         Relation("B", ("y",), [(i,) for i in range(5)])]
    )
    assert count_answers(query, db) == 35


def test_cyclic_query_raises():
    query = JoinQuery(
        [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
    )
    db = Database(
        [
            Relation("R", ("a", "b"), [(1, 2)]),
            Relation("S", ("a", "b"), [(2, 3)]),
            Relation("T", ("a", "b"), [(3, 1)]),
        ]
    )
    with pytest.raises(CyclicQueryError):
        count_answers(query, db)


def test_self_join_count():
    query = JoinQuery([Atom("E", ("x", "y")), Atom("E", ("y", "z"))])
    db = Database([Relation("E", ("a", "b"), [(1, 2), (2, 3), (2, 4), (3, 1)])])
    assert count_answers(query, db) == len(query.answers_brute_force(db))


# ---------------------------------------------------------------------- #
# Property test: counting agrees with brute force on random path queries.
# ---------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_atoms=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=0, max_value=12),
    domain=st.integers(min_value=1, max_value=4),
)
def test_count_matches_brute_force_random(seed, num_atoms, rows, domain):
    rng = random.Random(seed)
    atoms = [Atom(f"R{i}", (f"x{i}", f"x{i+1}")) for i in range(num_atoms)]
    relations = [
        Relation(
            f"R{i}", (f"x{i}", f"x{i+1}"),
            [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)],
        )
        for i in range(num_atoms)
    ]
    query, db = JoinQuery(atoms), Database(relations)
    assert count_answers(query, db) == len(query.answers_brute_force(db))
