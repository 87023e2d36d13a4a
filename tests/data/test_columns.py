"""Tests for the columnar backing store (repro.data.columns)."""

from __future__ import annotations

import pytest

from repro.data.columns import ColumnStore


ROWS = [(1, "a"), (2, "b"), (3, "c"), (4, "d")]


class TestMaterialization:
    def test_rows_roundtrip_from_rows(self):
        store = ColumnStore.from_rows(2, ROWS)
        assert store.rows() == ROWS
        assert len(store) == 4

    def test_rows_roundtrip_from_columns(self):
        store = ColumnStore.from_columns([[1, 2, 3, 4], ["a", "b", "c", "d"]])
        assert store.rows() == ROWS

    def test_column_from_rows(self):
        store = ColumnStore.from_rows(2, ROWS)
        assert store.column(0) == [1, 2, 3, 4]
        assert store.column(1) == ["a", "b", "c", "d"]

    def test_column_is_cached(self):
        store = ColumnStore.from_rows(2, ROWS)
        assert store.column(0) is store.column(0)

    def test_column_out_of_range(self):
        store = ColumnStore.from_rows(2, ROWS)
        with pytest.raises(IndexError):
            store.column(2)

    def test_iteration(self):
        store = ColumnStore.from_rows(2, ROWS)
        assert list(store) == ROWS

    def test_arity_zero(self):
        store = ColumnStore(0, length=3)
        assert len(store) == 3
        assert store.rows() == [(), (), ()]


class TestViews:
    def test_select_keeps_positions(self):
        store = ColumnStore.from_rows(2, ROWS)
        view = store.select([0, 2])
        assert view.rows() == [(1, "a"), (3, "c")]
        assert view.column(1) == ["a", "c"]

    def test_select_composes_to_base(self):
        store = ColumnStore.from_rows(2, ROWS)
        view = store.select([1, 2, 3]).select([0, 2])
        assert view.rows() == [(2, "b"), (4, "d")]

class TestMutation:
    def test_append_to_leaf(self):
        store = ColumnStore.from_rows(2, ROWS[:2])
        store.append((9, "z"))
        assert store.rows() == ROWS[:2] + [(9, "z")]
        assert store.column(0) == [1, 2, 9]

    def test_append_does_not_mutate_previously_served_column(self):
        # column() hands out the cached list (for a column leaf, the stored
        # array itself), so append must drop the cache, never extend it.
        for store in (
            ColumnStore.from_rows(2, ROWS[:2]),
            ColumnStore.from_columns([[1, 2], ["a", "b"]]),
        ):
            column = store.column(0)
            store.append((9, "z"))
            assert column == [1, 2]  # the handed-out list is frozen
            assert store.column(0) == [1, 2, 9]
            assert store.rows() == ROWS[:2] + [(9, "z")]

    def test_snapshot_is_frozen_against_append(self):
        store = ColumnStore.from_rows(2, ROWS[:2])
        frozen = store.snapshot()
        store.append((9, "z"))
        assert frozen.rows() == ROWS[:2]
        assert len(frozen) == 2

    def test_append_to_view_is_copy_on_write(self):
        store = ColumnStore.from_rows(2, ROWS)
        view = store.select([0, 1])
        view.append((9, "z"))
        assert view.rows() == [(1, "a"), (2, "b"), (9, "z")]
        assert store.rows() == ROWS  # parent untouched
