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


# ---------------------------------------------------------------------- #
# Masked counts (what refuse_nan_sums counts, and the reference for weight
# bisection's frontier counts in tests/core/test_bisection_probes.py).
# ---------------------------------------------------------------------- #
def figure1_tree(query, db):
    return MaterializedTree(query, db, rooted=build_join_tree(query).rooted(root=0))


def kept_database(query, db, tree, masks):
    """``db`` with every masked node's dropped rows left out."""
    relations = {atom.relation: db[atom.relation] for atom in query}
    for node, mask in masks.items():
        name = query[node].relation
        rows = [row for row, keep in zip(tree.rows(node), mask) if keep]
        relations[name] = Relation(name, db[name].schema, rows)
    return Database(list(relations.values()))


@pytest.mark.parametrize("node", range(4))
def test_masking_one_node_counts_the_join_without_its_dropped_rows(
    figure1_query, figure1_db, node
):
    tree = figure1_tree(figure1_query, figure1_db)
    masks = {node: [i % 2 for i in range(len(tree.rows(node)))]}
    counts = subtree_counts(tree, masks)
    expected = count_answers(figure1_query, kept_database(figure1_query, figure1_db, tree, masks))
    assert sum(counts[tree.root]) == expected < 13


def test_an_all_ones_mask_counts_like_no_mask(figure1_query, figure1_db):
    tree = figure1_tree(figure1_query, figure1_db)
    masks = {node: [1] * len(tree.rows(node)) for node in range(4)}
    assert subtree_counts(tree, masks) == subtree_counts(figure1_tree(figure1_query, figure1_db))


def test_masked_counts_keep_nothing_on_the_tree(figure1_query, figure1_db):
    tree = figure1_tree(figure1_query, figure1_db)
    subtree_counts(tree, {3: [0, 1, 1]})
    for node in range(4):
        assert tree.subtree(node).counts is None
        assert tree.subtree(node).sent == {}
    # The unmasked pass afterwards is the plain one, and it is kept.
    assert count_from_tree(tree) == 13
    assert tree.subtree(tree.root).counts is not None


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_atoms=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=0, max_value=10),
)
def test_masked_count_matches_brute_force_random(seed, num_atoms, rows):
    """Nested masks ``wide`` ⊇ ``narrow`` on random paths: each masked count
    is the join of the kept rows."""
    rng = random.Random(seed)
    query = JoinQuery([Atom(f"R{i}", (f"x{i}", f"x{i+1}")) for i in range(num_atoms)])
    db = Database(
        [
            Relation(
                f"R{i}", (f"x{i}", f"x{i+1}"),
                sorted({(rng.randrange(3), rng.randrange(3)) for _ in range(rows)}),
            )
            for i in range(num_atoms)
        ]
    )
    tree = MaterializedTree(query, db, rooted=build_join_tree(query).rooted(root=0))
    wide = {node: [rng.random() < 0.8 for _ in tree.rows(node)] for node in range(num_atoms)}
    narrow = {
        node: [keep and rng.random() < 0.6 for keep in mask] for node, mask in wide.items()
    }
    for masks in (wide, narrow):
        expected = len(query.answers_brute_force(kept_database(query, db, tree, masks)))
        assert sum(subtree_counts(tree, masks)[tree.root]) == expected
