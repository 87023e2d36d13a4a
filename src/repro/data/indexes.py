"""Per-relation index catalog: memoized hash indexes and sort orders.

Every :class:`~repro.data.relation.Relation` lazily owns an
:class:`IndexCatalog`.  The catalog memoizes the physical access structures
the join stack keeps rebuilding:

* **hash indexes** keyed by an attribute subset — ``{key: [row positions]}``
  — serving the SUM trimmer's join groups;
* **key sets** (the distinct key tuples of a hash index), serving
  :meth:`Relation.__contains__`;
* **weight orders** — row positions sorted by a caller-supplied key function,
  memoized under a caller-supplied hashable tag (which should embed the
  identifying objects themselves, never their ``id()``) — serving the
  trimmers' per-group sorts;
* **per-variable weight columns and orders** — ``weight(variable, value)``
  per value of one column, and its stable argsort with the sorted weights —
  which the MIN/MAX/LEX trims bisect instead of scanning rows, and which a
  trim's output inherits from its base.

Appends no longer drop the catalog wholesale: :meth:`Relation.add` calls
:meth:`IndexCatalog.note_append`, which absorbs the new row into every
built hash index and key set in place, keeps memoized weight-value arrays
(extended lazily by :meth:`weight_values` on next read), and drops only the
order-derived structures — sort orders and trimmer memos — whose shape
depends on the global row order.  A stale index can still never be served:
everything kept is delta-correct, everything order-dependent is recomputed.

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
#: ``weight(variable, value)``: a ranking's bound ``variable_weight`` / ``key_of``.
VariableWeight = Callable[[str, Value], Any]


class IndexCatalog:
    """Memoized physical access structures of one relation.

    Obtained via :attr:`Relation.indexes`; survives appends — the relation
    calls :meth:`note_append` so hash indexes and key sets stay current,
    keeping memoized weight values warm across :meth:`Relation.add` calls.
    Appends assume a single writer (like :meth:`Relation.add` itself);
    concurrent readers remain safe because kept structures are only ever
    extended and replaced structures are published whole.  ``relation`` is a
    catalog-less twin of the owner over the same store (see
    :attr:`Relation.indexes`): the catalog never points back at its owner.
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

    def _publish_overwrite(self, table: dict[Any, Any], signature: Hashable, value: Any) -> Any:
        """Install ``value`` under ``signature`` unconditionally.

        Used when replacing a structure that is known stale (e.g. a
        weight-value array shorter than the relation after appends): unlike
        :meth:`_publish`, the fresh structure must win.  Readers holding the
        old structure are unaffected — it is never mutated, only superseded.
        """
        with self._lock:
            table[signature] = value
            return value

    # ------------------------------------------------------------------ #
    # Append maintenance
    # ------------------------------------------------------------------ #
    def note_append(self, row: Row) -> None:
        """Absorb one appended row (called by :meth:`Relation.add`).

        Hash indexes and key sets take the new row in O(built indexes);
        weight-value arrays are kept (extended lazily by
        :meth:`weight_values` when next read); sort orders and trimmer
        memos are dropped — their shape depends on the global row order, so
        a delta append cannot patch them.  Single-writer, like
        :meth:`Relation.add`.
        """
        relation = self.relation
        position = len(relation) - 1
        with self._lock:
            for signature, index in self._hash_indexes.items():
                key = tuple(row[relation.position(a)] for a in signature)
                index.setdefault(key, []).append(position)
            for signature, keys in self._key_sets.items():
                keys.add(tuple(row[relation.position(a)] for a in signature))
            stale = [
                s
                for s in self._orders
                if isinstance(s, tuple) and s and s[0] in ("__order__", "__memo__")
            ]
            for signature in stale:
                del self._orders[signature]

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
        alive and their ids cannot be recycled into stale hits.  Values
        memoized before an append survive it: a cached array shorter than
        the relation is extended with ``key`` applied to the new rows only —
        into a fresh list, so readers holding the old array never observe
        growth mid-scan.
        """
        return self._values(
            tag, lambda start: [key(row) for row in self.relation.rows[start:]]
        )

    def _values(self, tag: Hashable, tail: Callable[[int], list[Any]]) -> list[Any]:
        """The array memoized under ``tag``; ``tail(start)`` computes its
        entries for the rows from ``start`` on (all of them, or the appended)."""
        signature: Hashable = ("__values__", tag)
        values = self._orders.get(signature)
        length = len(self.relation)
        if values is not None:
            self.hits += 1
            if len(values) == length:
                return values
            # Stale-short after appends: keep the already-computed prefix.
            checkpoint("index.weights", rows=length - len(values))
            extended = values + tail(len(values))
            return self._publish_overwrite(self._orders, signature, extended)
        self.misses += 1
        checkpoint("index.weights", rows=length)
        return self._publish(self._orders, signature, tail(0))

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

        Used by trimmers to cache interval-independent constructions (e.g.
        the segment-annotated group side of the SUM trimming) that would
        otherwise be rebuilt on every pivot iteration.  Like every other
        index, the memo dies with the catalog when the relation mutates.
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
    # Per-variable weight columns (MIN/MAX/LEX trims, pivot selection)
    # ------------------------------------------------------------------ #
    def column_weights(
        self, position: int, variable: str, weight: VariableWeight
    ) -> list[Any]:
        """``weight(variable, value)`` per value of the column at ``position``.

        Memoized under ``(weight, variable, position)`` — pass the ranking's
        bound method itself (``ranking.variable_weight``, ``ranking.key_of``):
        bound methods of one object compare and hash equal, so the function
        is its own tag.  Kept across appends like :meth:`weight_values`.
        """
        column = self.relation.store.column
        return self._values(
            (weight, variable, position),
            lambda start: [weight(variable, value) for value in column(position)[start:]],
        )

    def seed_column_weights(
        self, position: int, variable: str, weight: VariableWeight, values: list[Any]
    ) -> None:
        """Install what :meth:`column_weights` would compute: a trim gathers
        its output's weight columns from the relation it selected rows of."""
        self._publish(self._orders, ("__values__", (weight, variable, position)), values)

    def known_column_weights(
        self, position: int, variable: str, weight: VariableWeight
    ) -> list[Any] | None:
        """:meth:`column_weights` if memoized or seeded and current, else
        ``None`` — never computes, charges no rows."""
        values = self._orders.get(("__values__", (weight, variable, position)))
        if values is None or len(values) != len(self.relation):
            return None
        self.hits += 1
        return values

    def column_order(
        self, position: int, variable: str, weight: VariableWeight
    ) -> tuple[list[int], list[Any]]:
        """Row positions stably sorted by :meth:`column_weights`, and the
        weights in that order — so a bound on the variable's weight is two
        bisects and the survivors one contiguous run of the order.  A memo:
        built once per relation, dropped by :meth:`note_append`."""

        def build() -> tuple[list[int], list[Any]]:
            checkpoint("index.order", rows=len(self.relation))
            kernel = active_backend()
            values = self.column_weights(position, variable, weight)
            order = kernel.argsort(values)
            return order, kernel.take(values, order)

        return self.memo(("column_order", weight, variable, position), build)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexCatalog({self.relation.name!r}, "
            f"{len(self._hash_indexes)} hash, {len(self._orders)} orders, "
            f"hits={self.hits}, misses={self.misses})"
        )
