"""Satellite: ``Relation.add`` keeps the index catalog warm.

Appending used to drop the whole :class:`IndexCatalog`, discarding every
memoized weight-value array along with the (cheap to patch) hash indexes.
Now the catalog survives: hash indexes and key sets absorb the new row in
place, weight-value memos are extended lazily, and only order-derived
structures (sort orders, trimmer memos) are recomputed.
"""

from __future__ import annotations

from repro.data.relation import Relation

from tests.conftest import semijoin_positions


def make_relation() -> Relation:
    return Relation(
        "R",
        ("x", "y"),
        [(1, "a"), (2, "b"), (1, "c"), (3, "a")],
    )


class TestCatalogSurvival:
    def test_catalog_identity_preserved_across_add(self):
        relation = make_relation()
        catalog = relation.indexes
        relation.add((4, "d"))
        assert relation.indexes is catalog

    def test_hash_index_delta_appended(self):
        relation = make_relation()
        index = relation.indexes.hash_index(("x",))
        relation.add((1, "z"))
        # Same structure, patched in place: no rebuild happened.
        assert relation.indexes.hash_index(("x",)) is index
        assert index[(1,)] == [0, 2, 4]
        relation.add((9, "new"))
        assert index[(9,)] == [5]

    def test_multi_attribute_hash_index_delta_appended(self):
        relation = make_relation()
        index = relation.indexes.hash_index(("x", "y"))
        relation.add((1, "a"))
        assert index[(1, "a")] == [0, 4]

    def test_empty_signature_hash_index_delta_appended(self):
        relation = make_relation()
        index = relation.indexes.hash_index(())
        relation.add((5, "e"))
        assert index[()] == [0, 1, 2, 3, 4]

    def test_key_set_delta_appended(self):
        relation = make_relation()
        keys = relation.indexes.key_set(("x",))
        relation.add((7, "q"))
        assert relation.indexes.key_set(("x",)) is keys
        assert (7,) in keys

    def test_membership_index_stays_current(self):
        relation = make_relation()
        assert (6, "f") not in relation  # builds the full-schema key set
        misses_after_build = relation.indexes.misses
        relation.add((6, "f"))
        assert (6, "f") in relation
        # Served from the delta-maintained key set, not a rebuild.
        assert relation.indexes.misses == misses_after_build


class TestWeightValueExtension:
    def test_values_extended_not_recomputed(self):
        relation = make_relation()
        calls = []

        def key(row):
            calls.append(row)
            return row[0]

        values = relation.indexes.weight_values(("w",), key)
        assert values == [1, 2, 1, 3]
        assert len(calls) == 4
        relation.add((5, "e"))
        extended = relation.indexes.weight_values(("w",), key)
        assert extended == [1, 2, 1, 3, 5]
        # Only the appended row was keyed; the prefix memo was reused.
        assert len(calls) == 5

    def test_extension_is_a_fresh_list(self):
        # Readers holding the pre-append array must not see it grow.
        relation = make_relation()
        key = lambda row: row[0]  # noqa: E731
        before = relation.indexes.weight_values(("w",), key)
        relation.add((5, "e"))
        after = relation.indexes.weight_values(("w",), key)
        assert before == [1, 2, 1, 3]
        assert after == [1, 2, 1, 3, 5]
        assert after is not before

    def test_multiple_appends_between_reads(self):
        relation = make_relation()
        key = lambda row: row[0]  # noqa: E731
        relation.indexes.weight_values(("w",), key)
        relation.add((5, "e"))
        relation.add((6, "f"))
        assert relation.indexes.weight_values(("w",), key) == [1, 2, 1, 3, 5, 6]


class TestOrderRecomputation:
    def test_weight_order_recomputed_after_add(self):
        relation = Relation("R", ("x",), [(3,), (1,)])
        key = lambda row: row[0]  # noqa: E731
        assert relation.indexes.weight_order(("w",), key) == [1, 0]
        relation.add((0,))
        assert relation.indexes.weight_order(("w",), key) == [2, 1, 0]
        relation.add((2,))
        assert relation.indexes.weight_order(("w",), key) == [2, 1, 3, 0]

    def test_memo_dropped_after_add(self):
        relation = make_relation()
        calls = []

        def compute():
            calls.append(1)
            return {"built": len(calls)}

        relation.indexes.memo("tag", compute)
        relation.add((5, "e"))
        rebuilt = relation.indexes.memo("tag", compute)
        assert rebuilt == {"built": 2}
        assert len(calls) == 2


class TestCorrectnessAfterAppend:
    def test_semijoin_after_interleaved_appends(self):
        left = make_relation()
        right = Relation("S", ("x",), [(2,)])
        assert semijoin_positions(left, right) == [1]  # builds both sides' indexes
        right.add((3,))
        left.add((2, "zz"))
        result = left.select_rows(semijoin_positions(left, right))
        assert sorted(result.rows) == [(2, "b"), (2, "zz"), (3, "a")]

    def test_group_by_after_add_matches_cold_rebuild(self):
        warm = make_relation()
        warm.indexes.hash_index(["x"])  # builds the index before the append
        warm.add((1, "zz"))
        cold = Relation("R", ("x", "y"), list(warm.rows))
        assert warm.indexes.hash_index(["x"]) == cold.indexes.hash_index(["x"])
