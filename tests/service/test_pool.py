"""EnginePool: named engines, shared prepared LRU, byte-budget eviction."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.service.pool import EnginePool, UnknownDatabaseError
from repro.workloads.path import path_workload

QUERY = "R1(x1,x2), R2(x2,x3), R3(x3,x4)"
RANKING = "sum(x1, x2)"


@pytest.fixture()
def workload():
    return path_workload(3, 40, 6, seed=11)


@pytest.fixture()
def pool(workload):
    pool = EnginePool()
    pool.register("demo", workload.db)
    return pool


class TestRegistration:
    def test_register_and_lookup(self, pool, workload):
        assert pool.databases() == ["demo"]
        assert pool.engine("demo").db is workload.db

    def test_unknown_database_raises_with_known_names(self, pool):
        with pytest.raises(UnknownDatabaseError) as excinfo:
            pool.engine("nope")
        assert "demo" in str(excinfo.value)

    def test_empty_name_rejected(self, pool, workload):
        with pytest.raises(ValidationError):
            pool.register("", workload.db)

    def test_reregister_replaces_engine_and_purges_prepared(self, pool, workload):
        first = pool.prepared("demo", QUERY, RANKING)
        assert pool.prepared_count == 1
        pool.register("demo", workload.db)
        assert pool.prepared_count == 0
        second = pool.prepared("demo", QUERY, RANKING)
        assert second is not first


class TestPreparedLRU:
    def test_hit_returns_same_object(self, pool):
        first = pool.prepared("demo", QUERY, RANKING)
        second = pool.prepared("demo", QUERY, RANKING)
        assert second is first
        assert pool.hits == 1 and pool.misses == 1

    def test_distinct_knobs_are_distinct_entries(self, pool):
        base = pool.prepared("demo", QUERY, RANKING)
        seeded = pool.prepared("demo", QUERY, RANKING, seed=3)
        assert seeded is not base
        assert pool.prepared_count == 2

    def test_prepared_answers_correctly(self, pool):
        prepared = pool.prepared("demo", QUERY, RANKING)
        result = prepared.quantile(0.5)
        assert 0 <= result.target_index < result.total_answers

    def test_estimated_bytes_grows_with_use(self, pool):
        prepared = pool.prepared("demo", QUERY, RANKING)
        cold = prepared.estimated_bytes()
        prepared.quantile(0.5)
        assert prepared.estimated_bytes() >= cold


class TestByteBudgetEviction:
    def test_lru_entry_evicted_when_over_budget(self, workload):
        pool = EnginePool(prepared_budget_bytes=1)  # everything is over budget
        pool.register("demo", workload.db)
        first = pool.prepared("demo", QUERY, RANKING)
        # A single entry is kept even when oversized: the request must run.
        assert pool.prepared_count == 1
        second = pool.prepared("demo", QUERY, RANKING, seed=3)
        # The older entry was evicted to make room for the newer one.
        assert pool.prepared_count == 1
        assert pool.evictions == 1
        replacement = pool.prepared("demo", QUERY, RANKING)
        assert replacement is not first
        assert pool.prepared("demo", QUERY, RANKING, seed=3) is not second

    def test_eviction_also_drops_engine_memo(self, workload):
        pool = EnginePool(prepared_budget_bytes=1)
        pool.register("demo", workload.db)
        first = pool.prepared("demo", QUERY, RANKING)
        engine = pool.engine("demo")
        # Engine memoizes by signature: without eviction this returns `first`.
        assert engine.prepare(QUERY, RANKING) is first
        pool.prepared("demo", QUERY, RANKING, seed=3)  # evicts `first`
        assert engine.prepare(QUERY, RANKING) is not first

    def test_recently_used_entry_survives(self, workload):
        pool = EnginePool()
        pool.register("demo", workload.db)
        a = pool.prepared("demo", QUERY, RANKING)
        b = pool.prepared("demo", QUERY, RANKING, seed=3)
        # Touch `a` so `b` is the LRU entry, then shrink the budget and add.
        pool.prepared("demo", QUERY, RANKING)
        pool.prepared_budget_bytes = a.estimated_bytes() + b.estimated_bytes()
        pool.prepared("demo", QUERY, RANKING, seed=4)
        keys = {key[:6] for key in pool._prepared}
        assert ("demo", QUERY, RANKING, None, "auto", None) in keys
        assert ("demo", QUERY, RANKING, None, "auto", 3) not in keys

    def test_spellings_of_one_request_count_once(self):
        # Raw request strings key the LRU, but the engine memoizes by parsed
        # signature: these three keys hold one prepared query.
        pool = EnginePool()
        pool.register("demo", path_workload(3, 60, join_domain=6, seed=5).db)
        first = pool.prepared("demo", QUERY, "sum(x1, x2)")
        assert pool.prepared("demo", QUERY, "sum(x1,x2)") is first
        assert pool.prepared("demo", QUERY, "sum(x1, x2)", on_budget="error") is first
        assert pool.prepared_count == 3
        assert pool.estimated_bytes() == first.estimated_bytes()
        # A budget of 2.5 such queries fits one more: nothing is evicted ...
        pool.prepared_budget_bytes = first.estimated_bytes() * 5 // 2
        other = pool.prepared("demo", QUERY, "max(x1, x4)")
        assert pool.estimated_bytes() == first.estimated_bytes() + other.estimated_bytes()
        assert pool.evictions == 0
        # ... and a fourth spelling is served the memoized query, not a cold one.
        assert pool.prepared("demo", QUERY, "sum( x1 , x2 )") is first

    def test_shared_query_leaves_the_engine_with_its_last_key(self, workload):
        pool = EnginePool(prepared_budget_bytes=1)
        pool.register("demo", workload.db)
        engine = pool.engine("demo")
        first = pool.prepared("demo", QUERY, "sum(x1, x2)")
        pool.prepared("demo", QUERY, "sum(x1,x2)")  # evicts the first key only
        assert pool.evictions == 1
        assert engine.prepare(QUERY, RANKING) is first
        pool.prepared("demo", QUERY, RANKING, seed=3)  # evicts the last key
        assert engine.prepare(QUERY, RANKING) is not first

    def test_stats_shape(self, pool):
        pool.prepared("demo", QUERY, RANKING)
        stats = pool.stats()
        assert stats["databases"] == ["demo"]
        assert stats["prepared_queries"] == 1
        assert stats["estimated_bytes"] > 0
        assert stats["over_budget"] is False

    def test_register_fixture_uses_budget(self, workload):
        pool = EnginePool(prepared_budget_bytes=1)
        pool.register("demo", workload.db)
        assert pool.stats()["budget_bytes"] == 1


def test_budget_must_be_positive():
    with pytest.raises(ValidationError):
        EnginePool(prepared_budget_bytes=0)
