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
