"""Unit tests for join tree construction and rooting."""

import pytest

from repro.exceptions import CyclicQueryError, QueryError
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.join_tree import build_join_tree, build_join_tree_with_adjacent


def path_query(k):
    return JoinQuery([Atom(f"R{i}", (f"x{i}", f"x{i+1}")) for i in range(k)])


def star_query(k):
    return JoinQuery([Atom(f"R{i}", ("h", f"x{i}")) for i in range(k)])


class TestBuildJoinTree:
    def test_path_tree_structure(self):
        query = path_query(4)
        tree = build_join_tree(query)
        assert tree.satisfies_running_intersection()
        # A path query has a unique join tree: the path itself.
        assert tree.has_edge(0, 1)
        assert tree.has_edge(1, 2)
        assert tree.has_edge(2, 3)

    def test_star_tree(self):
        tree = build_join_tree(star_query(4))
        assert tree.satisfies_running_intersection()

    def test_single_atom(self):
        tree = build_join_tree(JoinQuery([Atom("R", ("x", "y"))]))
        assert tree.nodes() == [0]
        assert not tree.edges

    def test_cyclic_query_raises(self):
        triangle = JoinQuery(
            [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
        )
        with pytest.raises(CyclicQueryError):
            build_join_tree(triangle)

    def test_cartesian_product_gets_a_tree(self):
        product = JoinQuery([Atom("A", ("x",)), Atom("B", ("y",)), Atom("C", ("z",))])
        tree = build_join_tree(product)
        assert tree.satisfies_running_intersection()
        assert len(tree.edges) == 2  # it is connected

    def test_figure1_running_intersection(self):
        query = JoinQuery(
            [
                Atom("R", ("x1", "x2")),
                Atom("S", ("x1", "x3")),
                Atom("T", ("x2", "x4")),
                Atom("U", ("x4", "x5")),
            ]
        )
        tree = build_join_tree(query)
        assert tree.satisfies_running_intersection()
        # S must hang off R (only R shares x1), U off T (only T shares x4).
        assert tree.has_edge(0, 1)
        assert tree.has_edge(2, 3)


class TestForcedAdjacency:
    def test_adjacent_pair_possible(self):
        query = path_query(3)  # R0(x0,x1), R1(x1,x2), R2(x2,x3)
        tree = build_join_tree_with_adjacent(query, 0, 1)
        assert tree is not None
        assert tree.has_edge(0, 1)
        assert tree.satisfies_running_intersection()

    def test_adjacent_pair_impossible(self):
        # Endpoints of a 3-path share no variable; making them adjacent would
        # break the running intersection property.
        query = path_query(3)
        assert build_join_tree_with_adjacent(query, 0, 2) is None

    def test_same_node_rejected(self):
        with pytest.raises(QueryError):
            build_join_tree_with_adjacent(path_query(3), 1, 1)

    def test_star_any_pair_adjacent(self):
        query = star_query(3)
        for i in range(3):
            for j in range(i + 1, 3):
                tree = build_join_tree_with_adjacent(query, i, j)
                assert tree is not None
                assert tree.has_edge(i, j)

    def test_social_network_share_attend_adjacent(self):
        query = JoinQuery(
            [
                Atom("Admin", ("u1", "e")),
                Atom("Share", ("u2", "e", "l2")),
                Atom("Attend", ("u3", "e", "l3")),
            ]
        )
        tree = build_join_tree_with_adjacent(query, 1, 2)
        assert tree is not None and tree.has_edge(1, 2)


class TestRootedTree:
    def test_orders_and_parents(self):
        query = path_query(4)
        rooted = build_join_tree(query).rooted(root=0)
        order = rooted.top_down_order()
        assert order[0] == 0
        bottom_up = rooted.bottom_up_order()
        assert bottom_up[-1] == 0
        for child, parent in rooted.parent.items():
            if parent is not None:
                assert order.index(parent) < order.index(child)

    def test_leaves_and_height(self):
        query = path_query(3)
        rooted = build_join_tree(query).rooted(root=0)
        assert rooted.leaves() == [2]
        assert rooted.height() == 2
        assert rooted.depth(2) == 2

    def test_subtree_nodes(self):
        query = path_query(3)
        rooted = build_join_tree(query).rooted(root=0)
        assert sorted(rooted.subtree_nodes(1)) == [1, 2]
        assert sorted(rooted.subtree_nodes(0)) == [0, 1, 2]

    def test_join_variables(self):
        query = path_query(3)
        rooted = build_join_tree(query).rooted(root=0)
        assert rooted.join_variables(0, 1) == ("x1",)

    def test_max_children_star(self):
        rooted = build_join_tree(star_query(4)).rooted(root=0)
        assert rooted.max_children() == 3
