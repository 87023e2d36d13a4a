"""Shared materialized-tree cache: build each join tree's physical form once.

Every consumer of the message-passing substrate — answer counting, the
Yannakakis reducer and enumerator, direct access, pivot selection — needs a
:class:`~repro.joins.message_passing.MaterializedTree` for its (query,
database) pair.  Before this cache each of them rebuilt the tree
independently, so one pivoting iteration paid for the same per-atom
materialization and join-group hashing up to three times (count the two trim
partitions, then re-materialize the chosen one for the next pivot
selection).

A :class:`TreeCache` memoizes trees per (query, database) *identity*.
Queries, databases and relations never change once built, so a cached tree
can never go stale and needs no check.  Entries are evicted
least-recently-used; each entry keeps strong references to its query and its
database, so Python cannot recycle an id the key is built from while the
entry is alive.

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
        # key -> (query, db, tree).  The query and db (the key's ids) are kept
        # alive so neither id can be recycled while the entry exists.
        self._entries: OrderedDict[
            tuple[int, int], tuple[JoinQuery, Database, MaterializedTree]
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

    def get(
        self,
        query: JoinQuery,
        db: Database,
        rooted: RootedJoinTree | None = None,
    ) -> MaterializedTree:
        """The materialized tree for (query, db), built at most once.

        A cached tree is served regardless of ``rooted``: any rooting
        supports counting, reduction, enumeration, and pivot selection.
        """
        key = (id(query), id(db))
        # A hit or a miss is counted under the lock (threads share a cache).
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[-1]
            self.misses += 1
        # Build fully off to the side before publishing: if the construction
        # is interrupted (budget trip, cancellation, injected fault) no entry
        # is installed and the next call rebuilds from scratch; a concurrent
        # reader can never observe the tree mid-build.
        checkpoint("tree_cache.build")
        tree = MaterializedTree(query, db, rooted=rooted, states=self._states)
        with self._lock:
            # A concurrent builder may have published while we were building;
            # keep the first published entry so every caller shares one tree
            # (and its memoized subtree counts).
            entry = self._entries.setdefault(key, (query, db, tree))
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
        return entry[-1]

    @property
    def states(self) -> StateTable:
        """The table the cached trees share states through; a tree built off
        the cache under another rooting shares them too."""
        return self._states

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
