"""Unit tests for the Database container."""

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import SchemaError


def make_db():
    return Database(
        [
            Relation("R", ("a", "b"), [(1, 2), (3, 4)]),
            Relation("S", ("b", "c"), [(2, 5)]),
        ]
    )


class TestConstruction:
    def test_from_iterable(self):
        db = make_db()
        assert len(db) == 2
        assert db.relation_names == ["R", "S"]

    def test_from_mapping(self):
        relation = Relation("R", ("a",), [(1,)])
        db = Database({"R": relation})
        assert db["R"] is relation

    def test_mapping_with_mismatched_key_rejected(self):
        relation = Relation("R", ("a",), [(1,)])
        with pytest.raises(SchemaError):
            Database({"Wrong": relation})

    def test_empty_database(self):
        db = Database()
        assert len(db) == 0
        assert db.size == 0

    def test_duplicate_name_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.add(Relation("R", ("a",), []))


class TestAccess:
    def test_getitem_missing(self):
        with pytest.raises(SchemaError):
            make_db()["T"]

    def test_contains(self):
        db = make_db()
        assert "R" in db
        assert "T" not in db

    def test_size_counts_tuples(self):
        assert make_db().size == 3

    def test_get_with_default(self):
        db = make_db()
        assert db.get("T") is None
        assert db.get("R") is db["R"]

    def test_iteration_yields_relations(self):
        names = [relation.name for relation in make_db()]
        assert names == ["R", "S"]

    def test_repr(self):
        assert "R[2]" in repr(make_db())
