"""Tests for the per-relation index catalog (repro.data.indexes),
including the invalidation guarantees after mutation."""

from __future__ import annotations

from repro.data.relation import Relation
from repro.ranking.minmax import MaxRanking

from tests.conftest import semijoin_positions


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
            relation.indexes.hash_index(("x",))
            relation.add((9, "z"))
            assert relation.indexes.hash_index(("x",))[(9,)] == [4]
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

    def test_column_order_is_the_stable_argsort_and_its_weights(self):
        relation = make_relation()
        ranking = MaxRanking(["x"])
        weights = relation.indexes.column_weights(0, "x", ranking.variable_weight)
        assert weights == [1.0, 2.0, 1.0, 3.0]
        order = relation.indexes.column_order(0, "x", ranking.variable_weight)
        assert order == ([0, 2, 1, 3], [1.0, 1.0, 2.0, 3.0])
        # The bound method is its own tag: each access of it is a new object
        # that compares equal, so it hits; another ranking's does not.
        misses = relation.indexes.misses
        assert relation.indexes.column_order(0, "x", ranking.variable_weight) is order
        assert relation.indexes.misses == misses
        other = MaxRanking(["x"], {"x": lambda value: -value})
        assert relation.indexes.column_order(0, "x", other.variable_weight)[0] == [3, 1, 0, 2]

    def test_seeded_column_weights_are_served_without_computing(self):
        relation = make_relation()
        weight = MaxRanking(["x"]).variable_weight
        assert relation.indexes.known_column_weights(0, "x", weight) is None
        seeded = [1.0, 2.0, 1.0, 3.0]
        relation.indexes.seed_column_weights(0, "x", weight, seeded)
        assert relation.indexes.known_column_weights(0, "x", weight) is seeded
        assert relation.indexes.column_weights(0, "x", weight) is seeded
        # After an append the seed is stale-short: not "known", extended on read,
        # and the order (a memo) is rebuilt.
        order, _ = relation.indexes.column_order(0, "x", weight)
        relation.add((0, "z"))
        assert relation.indexes.known_column_weights(0, "x", weight) is None
        assert relation.indexes.column_weights(0, "x", weight) == seeded + [0.0]
        assert seeded == [1.0, 2.0, 1.0, 3.0]
        assert relation.indexes.column_order(0, "x", weight)[0] == [4, 0, 2, 1, 3]
        assert order == [0, 2, 1, 3]

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
        # Appends keep the catalog (and its weight-value memos), so the tag
        # stays pinned across mutation too.
        relation.add((8, "h"))
        gc.collect()
        assert ref() is not None

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


class TestInvalidation:
    """``Relation.add`` after an index is built must never serve stale
    semijoin-probe / group / sort / membership results."""

    def test_contains_after_add(self):
        relation = make_relation()
        assert (9, "z") not in relation  # builds the membership index
        relation.add((9, "z"))
        assert (9, "z") in relation

    def test_group_by_after_add(self):
        relation = make_relation()
        assert len(relation.indexes.hash_index(["x"])) == 3  # builds the index
        relation.add((4, "d"))
        assert relation.indexes.hash_index(["x"])[(4,)] == [4]

    def test_semijoin_after_add(self):
        left = make_relation()
        right = Relation("S", ("x",), [(2,)])
        assert semijoin_positions(left, right) == [1]  # builds both sides' indexes
        right.add((1,))
        assert semijoin_positions(left, right) == [0, 1, 2]
        left.add((2, "zz"))
        assert semijoin_positions(left, right) == [0, 1, 2, 4]

    def test_weight_order_after_add(self):
        relation = Relation("R", ("x",), [(3,), (1,)])
        key = lambda row: row[0]  # noqa: E731
        assert relation.indexes.weight_order(("w",), key) == [1, 0]
        relation.add((0,))
        assert relation.indexes.weight_order(("w",), key) == [2, 1, 0]

    def test_version_bumps_on_add(self):
        relation = make_relation()
        before = relation.version
        relation.add((5, "e"))
        assert relation.version == before + 1

    def test_view_detaches_from_parent_after_add(self):
        relation = make_relation()
        view = relation.select_rows([0, 1])
        view.add((7, "q"))
        # The mutated view answers from its own (fresh) indexes.
        assert (7, "q") in view
        assert (7, "q") not in relation
