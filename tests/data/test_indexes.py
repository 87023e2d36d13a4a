"""Tests for the per-relation index catalog (repro.data.indexes)."""

from __future__ import annotations

from repro.data.relation import Relation


def make_relation():
    return Relation(
        "R",
        ("x", "y"),
        [(1, "a"), (2, "b"), (1, "c"), (3, "a")],
    )


class TestHashIndex:
    def test_hash_index_positions(self):
        relation = make_relation()
        index = relation.indexes.hash_index(("x",))
        assert index == {(1,): [0, 2], (2,): [1], (3,): [3]}

    def test_hash_index_multi_attribute(self):
        relation = make_relation()
        index = relation.indexes.hash_index(("x", "y"))
        assert index[(1, "a")] == [0]
        assert len(index) == 4

    def test_hash_index_empty_attributes(self):
        relation = make_relation()
        assert relation.indexes.hash_index(()) == {(): [0, 1, 2, 3]}

    def test_hash_index_is_memoized(self):
        relation = make_relation()
        first = relation.indexes.hash_index(("x",))
        assert relation.indexes.hash_index(("x",)) is first
        assert relation.indexes.hits >= 1

    def test_key_set(self):
        relation = make_relation()
        assert relation.indexes.key_set(("y",)) == {("a",), ("b",), ("c",)}


class TestLifetime:
    def test_a_relation_with_a_catalog_is_not_a_reference_cycle(self):
        # Trims drop thousands of relations that own a catalog; each must be
        # freed by its last reference, not wait for the cyclic collector.
        import gc

        gc.collect()
        gc.disable()
        try:
            relation = make_relation()
            assert relation.indexes.hash_index(("x",))[(3,)] == [3]
            del relation
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOrders:
    def test_weight_order_and_values(self):
        relation = make_relation()
        key = lambda row: -row[0]  # noqa: E731
        order = relation.indexes.weight_order(("neg",), key)
        assert order == [3, 1, 0, 2]
        assert relation.indexes.weight_values(("neg",), key) == [-1, -2, -1, -3]

    def test_tag_objects_are_pinned_alive(self):
        # Tags embed identifying objects (e.g. the ranking); the memo table
        # must keep them alive so their ids cannot be recycled into stale
        # cache hits for a semantically different object.
        import gc
        import weakref

        class Marker:
            pass

        relation = make_relation()
        marker = Marker()
        ref = weakref.ref(marker)
        relation.indexes.weight_values((marker, "w"), lambda row: row[0])
        del marker
        gc.collect()
        assert ref() is not None  # held by the catalog's memo table

    def test_memo(self):
        relation = make_relation()
        calls = []

        def compute():
            calls.append(1)
            return {"built": True}

        first = relation.indexes.memo("tag", compute)
        second = relation.indexes.memo("tag", compute)
        assert first is second
        assert len(calls) == 1
