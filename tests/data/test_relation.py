"""Unit tests for the Relation container."""

import pytest

from repro.data.relation import Relation
from repro.exceptions import SchemaError


def make_relation():
    return Relation("R", ("a", "b"), [(1, 10), (2, 20), (3, 30), (2, 25)])


class TestConstruction:
    def test_basic_properties(self):
        relation = make_relation()
        assert relation.name == "R"
        assert relation.schema == ("a", "b")
        assert relation.arity == 2
        assert len(relation) == 4

    def test_rows_are_tuples(self):
        relation = Relation("R", ("a",), [[1], [2]])
        assert all(isinstance(row, tuple) for row in relation.rows)

    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("a", "a"), [])

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("a", "b"), [(1,)])

    def test_empty_relation(self):
        relation = Relation("Empty", ("a", "b"))
        assert len(relation) == 0
        assert list(relation) == []

    def test_contains(self):
        relation = make_relation()
        assert (1, 10) in relation
        assert (9, 9) not in relation

    def test_equality_ignores_row_order(self):
        left = Relation("R", ("a",), [(1,), (2,)])
        right = Relation("R", ("a",), [(2,), (1,)])
        assert left == right

    def test_equality_different_name(self):
        left = Relation("R", ("a",), [(1,)])
        right = Relation("S", ("a",), [(1,)])
        assert left != right

    def test_repr_mentions_name_and_size(self):
        relation = make_relation()
        assert "R" in repr(relation)
        assert "4" in repr(relation)


class TestSchemaAccess:
    def test_position(self):
        relation = make_relation()
        assert relation.position("a") == 0
        assert relation.position("b") == 1

    def test_position_missing_attribute(self):
        with pytest.raises(SchemaError):
            make_relation().position("zzz")

    def test_has_attribute(self):
        relation = make_relation()
        assert relation.has_attribute("a")
        assert not relation.has_attribute("c")

    def test_column(self):
        relation = make_relation()
        assert relation.column("a") == [1, 2, 3, 2]
