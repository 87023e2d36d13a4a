"""Unit tests for the materialized join-tree substrate."""

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import QueryError
from repro.joins.message_passing import MaterializedTree
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.join_tree import build_join_tree


class TestMaterializedTree:
    def test_figure1_structure(self, figure1_query, figure1_db):
        tree = MaterializedTree(figure1_query, figure1_db)
        assert set(tree.nodes_bottom_up()) == {0, 1, 2, 3}
        assert tree.nodes_top_down()[0] == tree.root
        assert tree.total_rows() == figure1_db.size

    def test_rows_and_variables(self, figure1_query, figure1_db):
        tree = MaterializedTree(figure1_query, figure1_db)
        assert tree.variables(0) == ("x1", "x2")
        assert len(tree.rows(1)) == 5

    def test_join_groups(self, figure1_query, figure1_db):
        tree = MaterializedTree(figure1_query, figure1_db, rooted=build_join_tree(figure1_query).rooted(0))
        # S (atom 1) is a child of R (atom 0), grouped by x1.
        groups = tree.child_groups(0, 1)
        assert set(groups) == {(1,), (2,)}
        assert len(groups[(1,)]) == 3

    def test_parent_group_key(self, figure1_query, figure1_db):
        tree = MaterializedTree(figure1_query, figure1_db, rooted=build_join_tree(figure1_query).rooted(0))
        row = tree.rows(0)[0]  # (1, 1)
        assert tree.parent_group_key(0, row, 1) == (1,)

    def test_assignment(self, figure1_query, figure1_db):
        tree = MaterializedTree(figure1_query, figure1_db)
        assert tree.assignment(0, (1, 1)) == {"x1": 1, "x2": 1}

    def test_repeated_variable_atom(self):
        query = JoinQuery([Atom("R", ("x", "x"))])
        db = Database([Relation("R", ("a", "b"), [(1, 1), (1, 2)])])
        tree = MaterializedTree(query, db)
        assert tree.variables(0) == ("x",)
        assert tree.rows(0) == [(1,)]

    def test_arity_mismatch_rejected(self):
        query = JoinQuery([Atom("R", ("x", "y", "z"))])
        db = Database([Relation("R", ("a", "b"), [(1, 2)])])
        with pytest.raises(QueryError):
            MaterializedTree(query, db)

    def test_custom_root(self, figure1_query, figure1_db):
        rooted = build_join_tree(figure1_query).rooted(root=3)
        tree = MaterializedTree(figure1_query, figure1_db, rooted=rooted)
        assert tree.root == 3
        assert tree.nodes_top_down()[0] == 3
