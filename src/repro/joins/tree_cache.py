"""Shared materialized-tree cache: build each join tree's physical form once.

Every consumer of the message-passing substrate — answer counting, the
Yannakakis reducer and enumerator, direct access, pivot selection — needs a
:class:`~repro.joins.message_passing.MaterializedTree` for its (query,
database) pair.  Before this cache each of them rebuilt the tree
independently, so one pivoting iteration paid for the same per-atom
materialization and join-group hashing up to three times (count the two trim
partitions, then re-materialize the chosen one for the next pivot
selection).

A :class:`TreeCache` memoizes trees per (query, database) *identity* with a
cheap staleness check: alongside the tree it records a fingerprint of every
relation's ``(id, version)``, so a database whose relations were mutated (or
swapped) after the tree was built is transparently rebuilt rather than
served stale.  Entries are evicted least-recently-used; each entry keeps
strong references to its query, its database, *and* the fingerprinted
relation objects themselves, so Python cannot recycle any id the key or the
fingerprint is built from while the entry is alive (a relation removed from
the database by ``replace`` would otherwise be freed, letting a new relation
reuse its id at version 0 and alias the stale fingerprint).

Below the tree level the cache owns one weak-valued
:class:`~repro.joins.message_passing.StateTable`: cached trees over databases
that share relation objects (the trims of one pivoting run) share the node
and subtree states of the shared part.

The cache is safe under concurrent readers (the always-on service shares
one cache per prepared query across requests): trees are built entirely off
to the side — no lock held, so checkpoints and injected faults fire without
poisoning the cache — and published under a lock with a re-check, so a
caller can never observe a half-built tree and concurrent builders of the
same key converge on a single published entry.

:class:`~repro.engine.PreparedQuery` owns one cache per prepared query and
threads it through the whole solve path; the module-level convenience
functions (``count_answers`` and friends) build throwaway trees when no
cache is passed, which keeps the one-shot API dependency-free.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.data.database import Database
from repro.exceptions import ValidationError
from repro.joins.message_passing import MaterializedTree, StateTable
from repro.query.join_query import JoinQuery
from repro.query.join_tree import RootedJoinTree
from repro.runtime import checkpoint

#: Default cap on cached trees.  Each entry holds the materialized rows and
#: join-group indexes of one (query, database) pair, so the cache's memory is
#: bounded by this many times the candidate database size.
DEFAULT_TREE_CACHE_LIMIT = 32

Fingerprint = tuple[tuple[int, int], ...]


def database_fingerprint(db: Database) -> Fingerprint:
    """Cheap identity+version snapshot of every relation in ``db``.

    Two fingerprints agree iff the database still holds the *same* relation
    objects and none of them has been mutated through
    :meth:`~repro.data.relation.Relation.add` since the snapshot.
    """
    return tuple((id(relation), relation.version) for relation in db)


class TreeCache:
    """LRU cache of :class:`MaterializedTree` objects keyed by (query, db).

    Parameters
    ----------
    limit:
        Maximum number of cached trees (≥ 1).  The pivoting loop touches at
        most a handful of live (query, database) pairs per call — the base
        pair plus the two trim partitions of each cached pivot step — so a
        small cache already achieves full reuse.
    """

    __slots__ = ("limit", "_entries", "_states", "_lock", "hits", "misses")

    def __init__(self, limit: int = DEFAULT_TREE_CACHE_LIMIT) -> None:
        if limit < 1:
            raise ValidationError("TreeCache limit must be at least 1")
        self.limit = limit
        # key -> (query, db, relations, fingerprint, tree).  The query/db
        # (the key's ids) and the fingerprinted relation objects are all kept
        # alive so none of the ids can be recycled while the entry exists.
        self._entries: OrderedDict[
            tuple[int, int],
            tuple[JoinQuery, Database, tuple, Fingerprint, MaterializedTree],
        ] = OrderedDict()
        # Guards lookups, publishes, and eviction.  Never held while a tree
        # is being built, so concurrent readers of other keys (and injected
        # faults mid-build) proceed without contention.
        self._lock = threading.Lock()
        self._states = StateTable()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup(self, key: tuple[int, int], db: Database) -> MaterializedTree | None:
        """The cached fresh tree for ``key`` or None, dropping a stale entry;
        a hit or a miss is counted under the lock (threads share a cache)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[3] == database_fingerprint(db):
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[4]
            self._entries.pop(key, None)
            self.misses += 1
            return None

    def get(
        self,
        query: JoinQuery,
        db: Database,
        rooted: RootedJoinTree | None = None,
    ) -> MaterializedTree:
        """The materialized tree for (query, db), built at most once.

        A cached tree is served regardless of ``rooted`` — any rooting
        supports counting, reduction, enumeration, and pivot selection — but
        a stale tree (relations mutated or replaced since it was built) is
        discarded and rebuilt.
        """
        key = (id(query), id(db))
        tree = self._lookup(key, db)
        if tree is not None:
            return tree
        # Build fully off to the side before publishing: if the construction
        # is interrupted (budget trip, cancellation, injected fault) no entry
        # is installed and the next call rebuilds from scratch; a concurrent
        # reader can never observe the tree mid-build.
        fingerprint = database_fingerprint(db)
        checkpoint("tree_cache.build")
        tree = MaterializedTree(query, db, rooted=rooted, states=self._states)
        relations = tuple(db)
        with self._lock:
            current = database_fingerprint(db)
            # A concurrent builder may have published while we were building;
            # keep the first published fresh entry so every caller shares one
            # tree (and its memoized subtree counts).
            entry = self._entries.get(key)
            if entry is not None and entry[3] == current:
                self._entries.move_to_end(key)
                return entry[4]
            if fingerprint == current:
                self._entries[key] = (query, db, relations, fingerprint, tree)
                while len(self._entries) > self.limit:
                    self._entries.popitem(last=False)
            # else: the database mutated while we were building — serve the
            # tree to this caller (it matches what it read) but never publish
            # a fingerprint that no longer describes the relations.
        return tree

    @property
    def node_hits(self) -> int:
        """Nodes of built trees whose state another live tree already held."""
        return self._states.node_hits

    @property
    def node_misses(self) -> int:
        """Nodes of built trees that had to be materialized."""
        return self._states.node_misses

    def clear(self) -> None:
        """Drop every cached tree (and with them the states they shared)."""
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeCache({len(self._entries)}/{self.limit} trees, "
            f"hits={self.hits}, misses={self.misses}, "
            f"node_hits={self.node_hits}, node_misses={self.node_misses})"
        )
