"""Columnar backing store for relations.

A :class:`ColumnStore` holds the physical data of a
:class:`~repro.data.relation.Relation`: logically a sequence of rows, stored
either row-major (a list of tuples), column-major (one list per attribute),
or as a zero-copy *view* onto another store (a base store plus the positions
of the surviving rows).  Both representations are materialized lazily and
cached, so consumers that only touch one column never pay for row tuples and
vice versa.

Views are what make trimming cheap: filtering and semijoin reduction produce
stores that share the parent's column arrays and only record a
survivor-position array (a mask) instead of copying rows.  Sharing is safe
because no store is ever mutated: a trim builds a new store.  View
chains are collapsed eagerly — selecting from a view composes the positions
into the base store's coordinates — so access stays O(1) per cell regardless
of how many trims produced the store.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.kernels import active_backend

Value = Any
Row = tuple[Value, ...]


class ColumnStore:
    """Physical storage of one relation: rows, columns, or a masked view.

    Use the class methods :meth:`from_rows` and :meth:`from_columns` to build
    leaf stores; derive views with :meth:`select`.  A store's rows never
    change once built, so a view can share its base's arrays for good.
    """

    __slots__ = ("arity", "_rows", "_columns", "_base", "_positions", "_length")

    def __init__(
        self,
        arity: int,
        rows: list[Row] | None = None,
        columns: list[list[Value]] | None = None,
        base: "ColumnStore | None" = None,
        positions: Sequence[int] | None = None,
        length: int | None = None,
    ) -> None:
        self.arity = arity
        self._rows = rows
        self._columns = columns
        self._base = base
        self._positions = positions
        if length is None:
            if positions is not None:
                length = len(positions)
            elif rows is not None:
                length = len(rows)
            elif columns:
                length = len(columns[0])
            else:
                length = 0
        self._length = length

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, arity: int, rows: Iterable[Row]) -> "ColumnStore":
        """Leaf store over a row list (columns derived lazily)."""
        return cls(arity, rows=list(rows))

    @classmethod
    def from_columns(
        cls, columns: Sequence[list[Value]], length: int | None = None
    ) -> "ColumnStore":
        """Leaf store over per-column arrays (rows derived lazily).

        ``length`` is only needed for arity-0 stores, where no column can
        carry the row count.
        """
        columns = list(columns)
        return cls(len(columns), columns=columns, length=length)

    # ------------------------------------------------------------------ #
    # Size / iteration
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    # ------------------------------------------------------------------ #
    # Materialization (lazy, cached)
    # ------------------------------------------------------------------ #
    def rows(self) -> list[Row]:
        """The rows as a list of tuples (materialized once, then cached)."""
        if self._rows is None:
            if self._base is not None:
                base_rows = self._base.rows()
                assert self._positions is not None
                self._rows = active_backend().take(base_rows, self._positions)
            elif self.arity == 0:
                self._rows = [()] * self._length
            else:
                assert self._columns is not None
                self._rows = list(zip(*self._columns))
        return self._rows

    def column(self, index: int) -> list[Value]:
        """One column's values, in row order (materialized once, then cached).

        For a leaf store built from columns this is the stored array itself
        (zero-copy); callers must not mutate the returned list.
        """
        if not 0 <= index < self.arity:
            raise IndexError(f"column index {index} out of range [0, {self.arity})")
        if self._columns is None:
            self._columns = [None] * self.arity  # type: ignore[list-item]
        cached = self._columns[index]
        if cached is None:
            if self._base is not None:
                assert self._positions is not None
                base_column = self._base.column(index)
                cached = active_backend().take(base_column, self._positions)
            else:
                assert self._rows is not None
                cached = [row[index] for row in self._rows]
            self._columns[index] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Zero-copy derivation
    # ------------------------------------------------------------------ #
    def select(self, positions: Sequence[int]) -> "ColumnStore":
        """View keeping the rows at ``positions`` (in the given order).

        Selecting from a view composes the positions into the base store, so
        chains of filters never stack indirections.
        """
        if self._base is not None:
            own = self._positions
            assert own is not None
            positions = [own[i] for i in positions]
            base = self._base
        else:
            base = self
        return ColumnStore(self.arity, base=base, positions=list(positions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "view" if self._base is not None else "leaf"
        return f"ColumnStore({kind}, arity={self.arity}, rows={self._length})"
