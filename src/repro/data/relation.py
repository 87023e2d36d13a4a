"""Relations: named, schema'd collections of tuples.

A :class:`Relation` is the basic storage unit of the database substrate
(README, *Architecture*).  Its logical model is unchanged — a named sequence
of same-arity tuples plus a schema of attribute names — but the physical
data now lives in a :class:`~repro.data.columns.ColumnStore`: per-column
arrays with zero-copy masked views, so ``filter``/``semijoin``/``project``
/``rename`` share the parent's storage instead of copying rows.  Each
relation also lazily owns an :class:`~repro.data.indexes.IndexCatalog` of
memoized hash indexes and sort orders (delta-maintained across appends,
with order-derived structures recomputed lazily), which
``semijoin``, ``group_by``, ``natural_join``, and ``__contains__`` consult
instead of rebuilding their structures per call.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.data.columns import ColumnStore
from repro.data.indexes import IndexCatalog
from repro.exceptions import SchemaError

Value = Any
Row = tuple[Value, ...]

#: Guards lazy catalog creation across all relations.  Held only for the
#: instant of constructing an empty :class:`IndexCatalog`; index builds
#: themselves synchronize on the catalog's own publish lock.
_CATALOG_CREATION_LOCK = threading.Lock()


class Relation:
    """A named relation with a fixed schema and a list of tuples.

    Parameters
    ----------
    name:
        Relation symbol (e.g. ``"R"``).  Used for error messages and for
        looking the relation up in a :class:`~repro.data.database.Database`.
    schema:
        Attribute names, one per column.  Attribute names are plain strings;
        when a relation is materialized for a query atom, they coincide with
        the atom's variable names.
    rows:
        Iterable of tuples, each of the same arity as ``schema``.

    Examples
    --------
    >>> r = Relation("R", ("x", "y"), [(1, 2), (3, 4)])
    >>> r.arity
    2
    >>> len(r)
    2
    >>> r.column("y")
    [2, 4]
    """

    __slots__ = ("name", "schema", "_index_of", "_store", "_catalog", "_parent", "_version")

    def __init__(self, name: str, schema: Sequence[str], rows: Iterable[Row] = ()) -> None:
        self.name = name
        self.schema: tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise SchemaError(
                f"relation {name!r} has duplicate attribute names: {self.schema}"
            )
        self._index_of = {attr: i for i, attr in enumerate(self.schema)}
        materialized: list[Row] = []
        for row in rows:
            row = tuple(row)
            if len(row) != len(self.schema):
                raise SchemaError(
                    f"tuple {row!r} has arity {len(row)}, but relation {name!r} "
                    f"expects arity {len(self.schema)}"
                )
            materialized.append(row)
        self._store = ColumnStore.from_rows(len(self.schema), materialized)
        self._catalog: IndexCatalog | None = None
        self._parent: tuple["Relation", Sequence[int]] | None = None
        self._version = 0

    # ------------------------------------------------------------------ #
    # Internal constructors (trusted storage, no per-row validation)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls, name: str, schema: Sequence[str], store: ColumnStore
    ) -> "Relation":
        """Build a relation directly over a :class:`ColumnStore`."""
        relation = cls(name, schema, ())
        if store.arity != len(relation.schema):
            raise SchemaError(
                f"store of arity {store.arity} cannot back relation {name!r} "
                f"with schema {relation.schema}"
            )
        relation._store = store
        return relation

    def select_rows(self, positions: Sequence[int], name: str | None = None) -> "Relation":
        """Same-schema view keeping the rows at ``positions`` (a mask).

        The view shares this relation's column storage and remembers its
        parent, so derived indexes (sort orders) can be filtered from the
        parent's catalog instead of rebuilt.
        """
        view = Relation.from_store(
            name or self.name, self.schema, self._store.select(positions)
        )
        view._parent = (self, positions)
        return view

    def parent_view(self) -> tuple["Relation", Sequence[int]] | None:
        """The (parent relation, surviving positions) pair if this relation is
        an unmutated row-subset view of another relation, else ``None``."""
        if self._parent is None:
            return None
        parent, positions = self._parent
        if self._version or len(positions) != len(self):
            return None
        return parent, positions

    # ------------------------------------------------------------------ #
    # Physical accessors
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> list[Row]:
        """The rows as a list of tuples (materialized lazily, then cached)."""
        return self._store.rows()

    @property
    def store(self) -> ColumnStore:
        """The columnar backing store (shared with views of this relation)."""
        return self._store

    @property
    def indexes(self) -> IndexCatalog:
        """The memoized index catalog (created lazily, kept across appends).

        Creation is guarded by a module-wide lock so concurrent first readers
        share one catalog — two catalogs for the same relation would each
        rebuild every index, silently halving the service's cache hit rate.
        """
        catalog = self._catalog
        if catalog is None:
            with _CATALOG_CREATION_LOCK:
                catalog = self._catalog
                if catalog is None:
                    catalog = self._catalog = IndexCatalog(self)
        return catalog

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every :meth:`add`."""
        return self._version

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.schema)

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._store.rows())

    def __contains__(self, row: Row) -> bool:
        return self.indexes.contains_row(tuple(row))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.schema == other.schema
            and sorted(self.rows, key=repr) == sorted(other.rows, key=repr)
        )

    def __hash__(self) -> int:  # pragma: no cover - relations are not hashed in hot paths
        return hash((self.name, self.schema, len(self)))

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.schema!r}, {len(self)} rows)"

    # ------------------------------------------------------------------ #
    # Schema helpers
    # ------------------------------------------------------------------ #
    def position(self, attribute: str) -> int:
        """Return the column index of ``attribute``.

        Raises :class:`~repro.exceptions.SchemaError` if the attribute does
        not exist.
        """
        try:
            return self._index_of[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"schema is {self.schema}"
            ) from None

    def has_attribute(self, attribute: str) -> bool:
        """Return whether ``attribute`` is part of the schema."""
        return attribute in self._index_of

    def value(self, row: Row, attribute: str) -> Value:
        """Return the value assigned to ``attribute`` in ``row``."""
        return row[self.position(attribute)]

    def column(self, attribute: str) -> list[Value]:
        """All values of one column, in row order.

        The returned list is the store's cached column array — treat it as
        read-only.
        """
        return self._store.column(self.position(attribute))

    # ------------------------------------------------------------------ #
    # Relational operations (all linear time)
    # ------------------------------------------------------------------ #
    def add(self, row: Row) -> None:
        """Append a tuple, validating its arity.

        Mutation detaches the relation from any parent view linkage (via the
        version bump) but keeps the index catalog: hash indexes and key sets
        absorb the new row in place, memoized weight-value arrays are
        extended lazily on next read, and only order-derived structures
        (sort orders, trimmer memos) are dropped — see
        :meth:`IndexCatalog.note_append`.  Appends assume a single writer;
        concurrent readers are safe.
        """
        row = tuple(row)
        if len(row) != len(self.schema):
            raise SchemaError(
                f"tuple {row!r} has arity {len(row)}, but relation {self.name!r} "
                f"expects arity {len(self.schema)}"
            )
        self._store.append(row)
        self._version += 1
        catalog = self._catalog
        if catalog is not None:
            catalog.note_append(row)

    def filter(self, predicate: Callable[[Row], bool], name: str | None = None) -> "Relation":
        """Return a masked view with the rows satisfying ``predicate``."""
        rows = self._store.rows()
        return self.select_rows(
            [i for i, row in enumerate(rows) if predicate(row)], name
        )

    def filter_attribute(
        self, attribute: str, predicate: Callable[[Value], bool], name: str | None = None
    ) -> "Relation":
        """Return a masked view keeping rows where ``predicate(value)`` holds
        for the value of ``attribute``."""
        column = self.column(attribute)
        return self.select_rows(
            [i for i, value in enumerate(column) if predicate(value)], name
        )

    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Project onto ``attributes`` (duplicates are preserved).

        Column storage is shared with the parent relation (zero-copy).
        """
        positions = [self.position(a) for a in attributes]
        return Relation.from_store(
            name or self.name, tuple(attributes), self._store.project(positions)
        )

    def distinct(self, name: str | None = None) -> "Relation":
        """Return a duplicate-free view (order of first occurrence preserved)."""
        seen: set[Row] = set()
        positions: list[int] = []
        for index, row in enumerate(self._store.rows()):
            if row not in seen:
                seen.add(row)
                positions.append(index)
        return self.select_rows(positions, name)

    def rename(self, name: str) -> "Relation":
        """Return a copy of the relation under a new name (storage shared)."""
        return Relation.from_store(name, self.schema, self._store.snapshot())

    def with_schema(self, schema: Sequence[str], name: str | None = None) -> "Relation":
        """Return a copy with columns relabeled (arity must match)."""
        if len(schema) != len(self.schema):
            raise SchemaError(
                f"cannot relabel relation {self.name!r} of arity {len(self.schema)} "
                f"with schema of arity {len(schema)}"
            )
        return Relation.from_store(name or self.name, schema, self._store.snapshot())

    def extend(
        self,
        attribute: str,
        values: Callable[[Row], Value],
        name: str | None = None,
    ) -> "Relation":
        """Return a new relation with one extra column computed per row."""
        if self.has_attribute(attribute):
            raise SchemaError(
                f"relation {self.name!r} already has an attribute {attribute!r}"
            )
        new_column = [values(row) for row in self._store.rows()]
        return Relation.from_store(
            name or self.name,
            self.schema + (attribute,),
            self._store.snapshot().with_column(new_column),
        )

    def group_by(self, attributes: Sequence[str]) -> dict[Row, list[Row]]:
        """Group rows by their values on ``attributes``.

        Returns a dict mapping each distinct key (tuple of values, in the
        order of ``attributes``) to the list of rows in that group.  An empty
        ``attributes`` sequence returns a single group keyed by ``()``.
        Backed by the memoized hash index of the catalog.
        """
        rows = self._store.rows()
        return {
            key: [rows[i] for i in indices]
            for key, indices in self.indexes.hash_index(attributes).items()
        }

    def semijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """Semi-join: keep rows that agree with at least one row of ``other``
        on the shared attributes.  If there are no shared attributes and
        ``other`` is non-empty, all rows are kept (Cartesian semantics).

        Returns a masked view; both sides' hash structures are memoized in
        their index catalogs.
        """
        shared = [a for a in self.schema if other.has_attribute(a)]
        if not shared:
            positions: Sequence[int] = range(len(self)) if len(other) else ()
            return self.select_rows(positions, name)
        other_keys = other.indexes.key_set(shared)
        own_index = self.indexes.hash_index(shared)
        mask = bytearray(len(self))
        for key, indices in own_index.items():
            if key in other_keys:
                for i in indices:
                    mask[i] = 1
        return self.select_rows([i for i, keep in enumerate(mask) if keep], name)

    def natural_join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural join on shared attribute names (hash join, linear + output).

        The build side's hash index comes from ``other``'s memoized catalog.
        """
        shared = [a for a in self.schema if other.has_attribute(a)]
        other_extra = [a for a in other.schema if not self.has_attribute(a)]
        out_schema = self.schema + tuple(other_extra)
        out_rows: list[Row] = []
        other_rows = other.rows
        extra_positions = [other.position(a) for a in other_extra]
        if not shared:
            for left in self.rows:
                for right in other_rows:
                    out_rows.append(left + tuple(right[p] for p in extra_positions))
        else:
            index = other.indexes.hash_index(shared)
            self_shared_pos = [self.position(a) for a in shared]
            for left in self.rows:
                key = tuple(left[p] for p in self_shared_pos)
                for right_index in index.get(key, ()):
                    right = other_rows[right_index]
                    out_rows.append(left + tuple(right[p] for p in extra_positions))
        return Relation.from_store(
            name or f"{self.name}_join_{other.name}",
            out_schema,
            ColumnStore.from_rows(len(out_schema), out_rows),
        )
