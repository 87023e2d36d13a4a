"""Tests for the per-relation index catalog (repro.data.indexes)."""

from __future__ import annotations

from repro.data.relation import Relation


def make_relation():
    return Relation(
        "R",
        ("x", "y"),
        [(1, "a"), (2, "b"), (1, "c"), (3, "a")],
    )


class TestKeySet:
    def test_key_set(self):
        relation = make_relation()
        assert relation.indexes.key_set(("y",)) == {("a",), ("b",), ("c",)}

    def test_key_set_multi_attribute(self):
        relation = make_relation()
        keys = relation.indexes.key_set(("x", "y"))
        assert (1, "a") in keys and (1, "b") not in keys
        assert len(keys) == 4

    def test_key_set_empty_attributes(self):
        relation = make_relation()
        assert relation.indexes.key_set(()) == {()}
        assert Relation("E", ("x",), []).indexes.key_set(()) == set()

    def test_key_set_is_memoized(self):
        relation = make_relation()
        first = relation.indexes.key_set(("x",))
        assert relation.indexes.key_set(("x",)) is first
        assert (relation.indexes.hits, relation.indexes.misses) == (1, 1)


class TestLifetime:
    def test_a_relation_with_a_catalog_is_not_a_reference_cycle(self):
        # Thousands of relations that own a catalog get dropped; each must
        # be freed by its last reference, not wait for the cyclic collector.
        import gc

        gc.collect()
        gc.disable()
        try:
            relation = make_relation()
            assert (3, "a") in relation and (3, "b") not in relation
            del relation
            assert gc.collect() == 0
        finally:
            gc.enable()
