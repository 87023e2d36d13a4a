"""Unit tests for hypergraph structure: acyclicity, independence, chordless paths."""

from repro.query.atom import Atom
from repro.query.hypergraph import Hypergraph
from repro.query.join_query import JoinQuery


def hg(*edges):
    return Hypergraph(vertices=set().union(*edges), hyperedges=[frozenset(e) for e in edges])


class TestAcyclicity:
    def test_single_edge(self):
        assert hg({"a", "b", "c"}).is_acyclic

    def test_path_is_acyclic(self):
        assert hg({"a", "b"}, {"b", "c"}, {"c", "d"}).is_acyclic

    def test_star_is_acyclic(self):
        assert hg({"h", "a"}, {"h", "b"}, {"h", "c"}).is_acyclic

    def test_triangle_is_cyclic(self):
        assert not hg({"a", "b"}, {"b", "c"}, {"c", "a"}).is_acyclic

    def test_triangle_with_covering_edge_is_acyclic(self):
        # Alpha-acyclicity: adding the big edge {a,b,c} makes it acyclic.
        assert hg({"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "b", "c"}).is_acyclic

    def test_four_cycle_is_cyclic(self):
        assert not hg({"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}).is_acyclic

    def test_figure1_query_is_acyclic(self):
        query = JoinQuery(
            [
                Atom("R", ("x1", "x2")),
                Atom("S", ("x1", "x3")),
                Atom("T", ("x2", "x4")),
                Atom("U", ("x4", "x5")),
            ]
        )
        assert query.hypergraph().is_acyclic

    def test_cartesian_product_is_acyclic(self):
        assert hg({"a"}, {"b"}, {"c"}).is_acyclic

    def test_empty_hyperedges_ignored(self):
        graph = Hypergraph(vertices={"a"}, hyperedges=[frozenset()])
        assert graph.is_acyclic


class TestStructure:
    def test_adjacent(self):
        graph = hg({"a", "b"}, {"b", "c"})
        assert graph.adjacent("a", "b")
        assert not graph.adjacent("a", "c")

    def test_neighbours(self):
        graph = hg({"a", "b"}, {"b", "c"})
        assert graph.neighbours("b") == {"a", "c"}

    def test_is_independent(self):
        graph = hg({"a", "b"}, {"b", "c"}, {"c", "d"})
        assert graph.is_independent({"a", "c"})
        assert graph.is_independent({"a", "d"})
        assert not graph.is_independent({"a", "b"})

    def test_max_independent_subset_size(self):
        # Path a-b-c-d-e: {a, c, e} is independent.
        graph = hg({"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"})
        assert graph.max_independent_subset_size({"a", "c", "e"}) == 3
        assert graph.max_independent_subset_size({"a", "b"}) == 1

    def test_max_independent_subset_respects_candidates(self):
        graph = hg({"a", "b"}, {"b", "c"})
        assert graph.max_independent_subset_size({"a", "b"}) == 1


class TestChordlessPaths:
    def test_simple_path(self):
        graph = hg({"a", "b"}, {"b", "c"}, {"c", "d"})
        paths = list(graph.chordless_paths("a", "d"))
        assert paths == [["a", "b", "c", "d"]]

    def test_chord_excludes_long_path(self):
        # a-b-c-d with a chord {a, c}: the long path a-b-c-d is not chordless,
        # but a-c-d is.
        graph = hg({"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"})
        paths = list(graph.chordless_paths("a", "d"))
        assert ["a", "c", "d"] in paths
        assert ["a", "b", "c", "d"] not in paths

    def test_has_long_chordless_path(self):
        # Length is counted in vertices: a-b-c-d has 4 vertices (the paper's
        # conditionally hard pattern), a-b-c only 3.
        four_path = hg({"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"})
        assert four_path.has_long_chordless_path({"a", "e"}, min_length=4)
        assert four_path.has_long_chordless_path({"a", "d"}, min_length=4)
        assert not four_path.has_long_chordless_path({"a", "c"}, min_length=4)

    def test_same_vertex_yields_nothing(self):
        graph = hg({"a", "b"})
        assert list(graph.chordless_paths("a", "a")) == []
