"""Per-relation index catalog: memoized key sets.

Every :class:`~repro.data.relation.Relation` lazily owns an
:class:`IndexCatalog`, which memoizes the **key sets** of an attribute
subset (its distinct key tuples), serving :meth:`Relation.__contains__`.

A relation's rows never change once it is built, so nothing the catalog
holds can go stale: every key set is built once and kept for the relation's
lifetime.

The catalog is safe under concurrent readers (the always-on service shares
relations across requests): every key set is built entirely off to the
side — no lock held, so checkpoints and injected faults interrupt a build
without leaving partial state — and published under a per-catalog lock with
a re-check, so concurrent builders of the same key set converge on one
published structure and no reader can ever observe a half-built one.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.runtime import checkpoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.relation import Relation

Value = Any
Row = tuple[Value, ...]
Key = tuple[Value, ...]


class IndexCatalog:
    """Memoized key sets of one relation.

    Obtained via :attr:`Relation.indexes`.  ``relation`` is a catalog-less
    twin of the owner over the same store (see :attr:`Relation.indexes`):
    the catalog never points back at its owner.
    """

    __slots__ = ("relation", "_key_sets", "_lock", "hits", "misses")

    def __init__(self, relation: "Relation") -> None:
        self.relation = relation
        self._key_sets: dict[tuple[str, ...], set[Key]] = {}
        # Publish lock: taken only to install a fully built key set (with a
        # re-check), never while building, so builds stay interruptible and
        # concurrent readers of other key sets are never blocked.
        self._lock = threading.Lock()
        #: Cache statistics (reads by benchmarks and tests).
        self.hits = 0
        self.misses = 0

    def key_set(self, attributes: Sequence[str]) -> set[Key]:
        """The distinct key tuples of ``attributes`` (memoized).

        Built fully, published last: an interruption (budget, cancellation,
        injected fault) leaves the catalog without a partial key set, and
        concurrent builders converge on the first one published.
        """
        signature = tuple(attributes)
        keys = self._key_sets.get(signature)
        if keys is not None:
            self.hits += 1
            return keys
        self.misses += 1
        checkpoint("index.keys", rows=len(self.relation))
        if not signature:
            keys = {()} if len(self.relation) else set()
        elif len(signature) == 1:
            keys = {(value,) for value in self.relation.column(signature[0])}
        else:
            keys = set(zip(*(self.relation.column(a) for a in signature)))
        with self._lock:
            return self._key_sets.setdefault(signature, keys)

    def contains_row(self, row: Row) -> bool:
        """Membership test backed by the full-schema key set."""
        if len(row) != self.relation.arity:
            return False
        return row in self.key_set(self.relation.schema)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexCatalog({self.relation.name!r}, {len(self._key_sets)} key sets, "
            f"hits={self.hits}, misses={self.misses})"
        )
