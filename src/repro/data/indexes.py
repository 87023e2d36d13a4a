"""Per-relation index catalog: memoized hash indexes and sort orders.

Every :class:`~repro.data.relation.Relation` lazily owns an
:class:`IndexCatalog`.  The catalog memoizes the physical access structures
the join stack keeps rebuilding:

* **hash indexes** keyed by an attribute subset — ``{key: [row positions]}``;
* **key sets** (the distinct key tuples of a hash index), serving
  :meth:`Relation.__contains__`;
* **weight orders** — row positions sorted by a caller-supplied key function,
  memoized under a caller-supplied hashable tag (which should embed the
  identifying objects themselves, never their ``id()``).

A relation's rows never change once it is built, so nothing the catalog
holds can go stale: every structure is built once and kept for the
relation's lifetime.

The catalog is safe under concurrent readers (the always-on service shares
relations across requests): every index is built entirely off to the side —
no lock held, so checkpoints and injected faults interrupt a build without
leaving partial state — and published under a per-catalog lock with a
re-check, so concurrent builders of the same index converge on one
published structure and no reader can ever observe a half-built index.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Sequence
from typing import TYPE_CHECKING, Any

from repro.kernels import active_backend
from repro.runtime import checkpoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.relation import Relation

Value = Any
Row = tuple[Value, ...]
Key = tuple[Value, ...]


class IndexCatalog:
    """Memoized physical access structures of one relation.

    Obtained via :attr:`Relation.indexes`.  ``relation`` is a catalog-less
    twin of the owner over the same store (see :attr:`Relation.indexes`):
    the catalog never points back at its owner.
    """

    __slots__ = (
        "relation",
        "_hash_indexes",
        "_key_sets",
        "_orders",
        "_lock",
        "hits",
        "misses",
    )

    def __init__(self, relation: "Relation") -> None:
        self.relation = relation
        self._hash_indexes: dict[tuple[str, ...], dict[Key, list[int]]] = {}
        self._key_sets: dict[tuple[str, ...], set[Key]] = {}
        self._orders: dict[Hashable, list[int]] = {}
        # Publish lock: taken only to install a fully built structure (with a
        # re-check), never while building, so builds stay interruptible and
        # concurrent readers of other indexes are never blocked.
        self._lock = threading.Lock()
        #: Cache statistics (reads by benchmarks and tests).
        self.hits = 0
        self.misses = 0

    def _publish(self, table: dict[Any, Any], signature: Hashable, value: Any) -> Any:
        """Install ``value`` under ``signature`` unless a concurrent builder won.

        Returns the structure every caller should use — the first one
        published — so concurrent builders of the same index converge.
        """
        with self._lock:
            existing = table.get(signature)
            if existing is not None:
                return existing
            table[signature] = value
            return value

    # ------------------------------------------------------------------ #
    # Hash indexes
    # ------------------------------------------------------------------ #
    def hash_index(self, attributes: Sequence[str]) -> dict[Key, list[int]]:
        """``{key tuple: [row positions]}`` grouped by ``attributes``.

        Positions within each group are in row order.  An empty attribute
        sequence yields a single group keyed by ``()``.
        """
        signature = tuple(attributes)
        index = self._hash_indexes.get(signature)
        if index is not None:
            self.hits += 1
            return index
        self.misses += 1
        # Build fully, publish last: an interruption (budget, cancellation,
        # injected fault) below leaves the catalog without a partial index.
        checkpoint("index.hash", rows=len(self.relation))
        relation = self.relation
        columns = [relation.column(a) for a in signature]
        index = active_backend().group_by_hash(columns, len(relation))
        return self._publish(self._hash_indexes, signature, index)

    def key_set(self, attributes: Sequence[str]) -> set[Key]:
        """The distinct key tuples of ``attributes`` (memoized)."""
        signature = tuple(attributes)
        keys = self._key_sets.get(signature)
        if keys is not None:
            self.hits += 1
            return keys
        existing = self._hash_indexes.get(signature)
        if existing is not None:
            self.hits += 1  # served from the already-built hash index
            keys = set(existing)
        else:
            self.misses += 1
            checkpoint("index.keys", rows=len(self.relation))
            if not signature:
                keys = {()} if len(self.relation) else set()
            elif len(signature) == 1:
                keys = {(value,) for value in self.relation.column(signature[0])}
            else:
                columns = [self.relation.column(a) for a in signature]
                keys = set(zip(*columns))
        return self._publish(self._key_sets, signature, keys)

    def contains_row(self, row: Row) -> bool:
        """Membership test backed by the full-schema key set."""
        if len(row) != self.relation.arity:
            return False
        return row in self.key_set(self.relation.schema)

    # ------------------------------------------------------------------ #
    # Sort orders
    # ------------------------------------------------------------------ #
    def weight_values(self, tag: Hashable, key: Callable[[Row], Any]) -> list[Any]:
        """``key(row)`` per row position, memoized under ``tag``.

        ``tag`` must uniquely identify the semantics of ``key`` for this
        relation — callers typically use ``(ranking, atom variables, owned
        variables)``.  Embed identifying *objects* (identity hash), never
        their ``id()``: the memo table holds the tag, so the objects stay
        alive and their ids cannot be recycled into stale hits.
        """
        signature: Hashable = ("__values__", tag)
        values = self._orders.get(signature)
        if values is not None:
            self.hits += 1
            return values
        self.misses += 1
        checkpoint("index.weights", rows=len(self.relation))
        values = [key(row) for row in self.relation.rows]
        return self._publish(self._orders, signature, values)

    def weight_order(self, tag: Hashable, key: Callable[[Row], Any]) -> list[int]:
        """Row positions sorted by ``key(row)``, memoized under ``tag``."""
        signature: Hashable = ("__order__", tag)
        order = self._orders.get(signature)
        if order is not None:
            self.hits += 1
            return order
        self.misses += 1
        checkpoint("index.order", rows=len(self.relation))
        order = active_backend().argsort(self.weight_values(tag, key))
        return self._publish(self._orders, signature, order)

    # ------------------------------------------------------------------ #
    # Generic derived structures
    # ------------------------------------------------------------------ #
    def memo(self, tag: Hashable, compute: Callable[[], Any]) -> Any:
        """Memoize an arbitrary structure derived from the relation's rows.

        For interval-independent constructions that would otherwise be
        rebuilt on every pivot iteration.
        """
        signature: Hashable = ("__memo__", tag)
        if signature in self._orders:
            self.hits += 1
            return self._orders[signature]
        self.misses += 1
        checkpoint("index.memo")
        value = compute()
        return self._publish(self._orders, signature, value)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexCatalog({self.relation.name!r}, "
            f"{len(self._hash_indexes)} hash, {len(self._orders)} orders, "
            f"hits={self.hits}, misses={self.misses})"
        )
