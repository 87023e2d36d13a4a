"""Relations: named, schema'd collections of tuples.

A :class:`Relation` is the basic storage unit of the database substrate
(README, *Architecture*).  Its logical model is unchanged — a named sequence
of same-arity tuples plus a schema of attribute names — but the physical
data now lives in a :class:`~repro.data.columns.ColumnStore`: per-column
arrays with zero-copy masked views, so ``select_rows`` shares the parent's
storage instead of copying rows.  A relation is a value: its rows are fixed
when it is built, and trims and reductions build new relations.  Each
relation lazily owns an :class:`~repro.data.indexes.IndexCatalog` of memoized
key sets, which ``__contains__`` consults instead of rebuilding its key set
per call.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.data.columns import ColumnStore
from repro.data.indexes import IndexCatalog
from repro.exceptions import SchemaError

Value = Any
Row = tuple[Value, ...]

#: Guards lazy catalog creation across all relations.  Held only for the
#: instant of constructing an empty :class:`IndexCatalog`; key-set builds
#: themselves synchronize on the catalog's own publish lock.
_CATALOG_CREATION_LOCK = threading.Lock()


class Relation:
    """A named relation with a fixed schema and a fixed list of tuples.

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

    __slots__ = ("name", "schema", "_index_of", "_store", "_catalog")

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
        """Same-schema view keeping the rows at ``positions`` (a mask),
        sharing this relation's column storage."""
        return Relation.from_store(
            name or self.name, self.schema, self._store.select(positions)
        )

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
        """The memoized index catalog (created lazily).

        Creation is guarded by a module-wide lock so concurrent first readers
        share one catalog — two catalogs for the same relation would each
        rebuild every key set, silently halving the service's cache hit rate.

        The catalog indexes a catalog-less twin of this relation (same name,
        schema and store).  Pointing it back at ``self`` would make every
        relation with a catalog a reference cycle: the columns of each
        dropped trimmed relation would wait for the cyclic collector.
        """
        catalog = self._catalog
        if catalog is None:
            with _CATALOG_CREATION_LOCK:
                catalog = self._catalog
                if catalog is None:
                    twin = Relation.from_store(self.name, self.schema, self._store)
                    catalog = self._catalog = IndexCatalog(twin)
        return catalog

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

    def column(self, attribute: str) -> list[Value]:
        """All values of one column, in row order.

        The returned list is the store's cached column array — treat it as
        read-only.
        """
        return self._store.column(self.position(attribute))
