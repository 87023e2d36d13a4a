"""Tests for the shared materialized-tree cache (repro.joins.tree_cache)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.tree_cache import TreeCache
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery


@pytest.fixture
def pair():
    query = JoinQuery([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    db = Database(
        [
            Relation("R", ("x", "y"), [(1, 1), (2, 2)]),
            Relation("S", ("y", "z"), [(1, 10), (2, 20), (2, 30)]),
        ]
    )
    return query, db


def test_same_pair_returns_same_tree(pair):
    query, db = pair
    cache = TreeCache()
    first = cache.get(query, db)
    second = cache.get(query, db)
    assert first is second
    assert cache.hits == 1
    assert cache.misses == 1


def test_distinct_databases_get_distinct_trees(pair):
    query, db = pair
    cache = TreeCache()
    other = Database(list(db))
    assert cache.get(query, db) is not cache.get(query, other)
    assert cache.misses == 2


def test_entry_keeps_its_database_alive(pair):
    # The key is the database's id: while the entry exists the database must
    # not be freed, or a new database could reuse the id and hit its tree.
    class Tracked(Database):  # no __slots__, so a weak reference can point at it
        pass

    query, base = pair
    db = Tracked(list(base))  # only this test holds it, not the fixture
    cache = TreeCache()
    cache.get(query, db)
    ref = weakref.ref(db)
    del db
    gc.collect()
    assert ref() is not None
    cache.clear()
    gc.collect()
    assert ref() is None


def test_lru_eviction(pair):
    query, db = pair
    cache = TreeCache(limit=2)
    tree = cache.get(query, db)
    for _ in range(3):
        cache.get(query, Database(list(db)))
    assert len(cache) == 2
    # The original entry was evicted; a new tree is built for the same pair.
    assert cache.get(query, db) is not tree


def test_limit_must_be_positive():
    with pytest.raises(ValueError):
        TreeCache(limit=0)
