"""Merge correctness: parallel answers are bit-identical to serial ones.

All tests here run the pools inline (``REPRO_PARALLEL_MODE=inline``) so
they are deterministic and fork-free; real process pools are exercised in
``test_process_pool.py``.
"""

from __future__ import annotations

import pytest

from repro.baselines.materialize import select_from_sorted, sorted_answers
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine, PreparedQuery
from repro.parallel.merger import ParallelSession, RankMerger
from repro.parallel.planner import ShardPlanner
from repro.query.join_query import JoinQuery
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MinRanking
from repro.ranking.sum import SumRanking
from repro.workloads.path import path_workload
from repro.workloads.star import star_workload

PHIS = [(i + 1) / 20 for i in range(19)]


def result_key(result):
    """The bit-equality contract: weight, rank, and total must match the
    serial path exactly (the pivot trajectory may legitimately differ)."""
    return (result.weight, result.target_index, result.total_answers, result.exact)


def skewed_db(rows=90, domain=4):
    """A binary join whose x2 column hash-partitions unevenly."""
    r = Relation("R", ("x1", "x2"), [(i, i % domain) for i in range(rows)])
    s = Relation("S", ("x2", "x3"), [(i % domain, i % 11) for i in range(rows // 2)])
    return Database([r, s])


class TestParallelMatchesSerial:
    def test_phi_sweep_bit_equality(self, inline_mode, fanout_workload):
        workload = fanout_workload
        serial = Engine(workload.db).prepare(workload.query, workload.ranking)
        parallel = Engine(workload.db).prepare(
            workload.query, workload.ranking, parallel=3
        )
        assert parallel.shards == 3
        serial_batch = serial.quantiles(PHIS)
        parallel_batch = parallel.quantiles(PHIS)
        assert [result_key(r) for r in parallel_batch] == [
            result_key(r) for r in serial_batch
        ]
        assert all(not r.degraded for r in parallel_batch)

    def test_pivot_iterations_actually_run(self, inline_mode, fanout_workload):
        # Guard against the sweep silently short-circuiting to the terminal
        # materialize: with a forced termination_size of ~|D| the loop must
        # iterate, and the merged loop must still agree with serial.
        from repro.engine import PreparedQuery

        workload = fanout_workload
        serial = PreparedQuery(
            workload.query, workload.db, workload.ranking, termination_factor=1
        )
        parallel = PreparedQuery(
            workload.query,
            workload.db,
            workload.ranking,
            termination_factor=1,
            parallel=3,
        )
        for phi in (0.1, 0.5, 0.9):
            serial_result = serial.quantile(phi)
            parallel_result = parallel.quantile(phi)
            assert result_key(parallel_result) == result_key(serial_result)
            assert parallel_result.iterations >= 1

    def test_selection_sweep_covers_every_rank(self, inline_mode):
        # Exhaustive index selection hits every shard-boundary rank: the
        # cumulative-count handoff between lt/eq/gt branches and between
        # shards cannot be off by one anywhere.
        db = skewed_db(rows=24, domain=3)
        query, ranking = "R(x1,x2), S(x2,x3)", "sum(x1, x3)"
        serial = Engine(db).prepare(query, ranking)
        parallel = Engine(db).prepare(query, ranking, parallel=3)
        total = serial.count()
        assert parallel.count() == total
        for index in range(total):
            assert result_key(parallel.selection(index)) == result_key(
                serial.selection(index)
            )

    def test_empty_shards_are_harmless(self, inline_mode):
        # K exceeds the number of distinct partition values: some shards
        # hold zero rows and zero answers, and the merge must skip them.
        db = skewed_db(rows=80, domain=2)  # x2 in {0, 1}, K = 5
        query, ranking = "R(x1,x2), S(x2,x3)", "sum(x1, x3)"
        serial = Engine(db).prepare(query, ranking)
        parallel = Engine(db).prepare(query, ranking, parallel=5)
        assert parallel.shards == 5
        for phi in PHIS:
            assert result_key(parallel.quantile(phi)) == result_key(
                serial.quantile(phi)
            )

    def test_all_rows_in_one_shard(self, inline_mode):
        # A constant partition column sends everything to a single shard;
        # the other shards are empty and the answer is still exact.
        r = Relation("R", ("x1", "x2"), [(i, 0) for i in range(60)])
        s = Relation("S", ("x2", "x3"), [(0, i) for i in range(9)])
        db = Database([r, s])
        query, ranking = "R(x1,x2), S(x2,x3)", "sum(x1, x3)"
        serial = Engine(db).prepare(query, ranking)
        parallel = Engine(db).prepare(query, ranking, parallel=3)
        for phi in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert result_key(parallel.quantile(phi)) == result_key(
                serial.quantile(phi)
            )

    def test_phi_on_exact_shard_boundary(self, inline_mode):
        # Engineer a φ whose target index is exactly the cumulative count of
        # shard 0 — the first rank owned by the next shard in weight order.
        db = skewed_db(rows=40, domain=2)
        query, ranking = "R(x1,x2), S(x2,x3)", "sum(x1, x3)"
        serial = Engine(db).prepare(query, ranking)
        parallel = Engine(db).prepare(query, ranking, parallel=2)
        total = serial.count()
        assert parallel.count() == total
        # Per-shard totals partition the global count; probe both sides of
        # every per-shard cumulative boundary via index selection.
        boundaries = []
        running = 0
        for shard_total in parallel._parallel_session.shard_totals:
            running += shard_total
            if 0 < running < total:
                boundaries.extend([running - 1, running])
        assert boundaries, "expected at least one interior shard boundary"
        for index in boundaries:
            assert result_key(parallel.selection(index)) == result_key(
                serial.selection(index)
            )
            phi = index / total
            assert result_key(parallel.quantile(phi)) == result_key(
                serial.quantile(phi)
            )


    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_tie_heavy_terminals_with_an_empty_shard(self, inline_mode, shards):
        # x2 picks both the shard and the weight range (100 * x2 + 0..3), so
        # a terminal interval usually lies inside one key's range — the other
        # shards' terminals are empty — and every weight is tied many times:
        # the merged columns must still select exactly the serial rank.
        r = Relation(
            "R", ("x1", "x2"), [(100 * (i % 4) + i % 3, i % 4) for i in range(120)]
        )
        s = Relation("S", ("x2", "x3"), [(i % 4, i % 2) for i in range(16)])
        db = Database([r, s])
        query, ranking = JoinQuery.parse("R(x1,x2), S(x2,x3)"), SumRanking(["x1", "x3"])
        serial = PreparedQuery(query, db, ranking, termination_factor=1)
        session = ParallelSession(ShardPlanner(shards).plan(query, db), ranking)
        session.start()
        merger = RankMerger(session)
        terminal_counts = []
        merge_terminal = merger.terminal

        def recording_terminal(interval, shard_counts, keep):
            terminal_counts.append(shard_counts)
            return merge_terminal(interval, shard_counts, keep)

        merger.terminal = recording_terminal
        assert session.total == serial.count() == 480
        for index in range(0, 480, 7):
            merged = merger.solve(None, index, set(query.variables), db.size)
            assert result_key(merged) == result_key(serial.selection(index))
        assert terminal_counts
        if shards > 1:
            assert any(0 in counts for counts in terminal_counts)


class TestSessionLifecycle:
    def test_auto_resolves_on_this_host(self, inline_mode, fanout_workload):
        workload = fanout_workload
        prepared = Engine(workload.db).prepare(
            workload.query, workload.ranking, parallel="auto"
        )
        import os

        if (os.cpu_count() or 1) >= 2:
            assert prepared.shards == min(4, os.cpu_count())
        else:
            assert prepared.shards is None  # serial on a single core
        assert result_key(prepared.quantile(0.5)) == result_key(
            Engine(workload.db)
            .prepare(workload.query, workload.ranking)
            .quantile(0.5)
        )

    def test_closed_prepared_query_falls_back_silently(
        self, inline_mode, fanout_workload
    ):
        # The sweep leaves the sharded cache warm: its steps carry per-shard
        # count tuples as handles, and the serial fallback must never be
        # served one of them.
        workload = fanout_workload
        serial = PreparedQuery(
            workload.query, workload.db, workload.ranking, termination_factor=1
        )
        parallel = PreparedQuery(
            workload.query,
            workload.db,
            workload.ranking,
            termination_factor=1,
            parallel=2,
        )
        expected = [result_key(r) for r in serial.quantiles(PHIS)]
        assert [result_key(r) for r in parallel.quantiles(PHIS)] == expected
        assert parallel.pivot_cache_size > 0
        parallel.close()
        assert parallel.shards is None
        assert parallel.pivot_cache_size == 0  # the sharded pair went with the pool
        after = parallel.quantiles(PHIS)
        assert [result_key(r) for r in after] == expected
        assert not any(r.degraded for r in after)  # orderly close is not a degradation
        assert parallel.pivot_cache_size == serial.pivot_cache_size


class TestShardedCaches:
    """The sharded path memoizes in the prepared query's one cache table."""

    def prepared(self, workload, **knobs):
        return PreparedQuery(
            workload.query, workload.db, workload.ranking, termination_factor=1, **knobs
        )

    def test_size_clear_and_bytes_cover_the_sharded_caches(
        self, inline_mode, fanout_workload
    ):
        parallel = self.prepared(fanout_workload, parallel=2)
        expected = [result_key(r) for r in parallel.quantiles([0.2, 0.5, 0.8])]
        assert parallel.shards == 2
        assert parallel.pivot_cache_size > 0
        steps, answers = parallel._caches["sharded"]
        assert parallel.pivot_cache_size == len(steps) and answers
        warm_bytes = parallel.estimated_bytes()
        parallel.clear_pivot_cache()
        assert parallel.pivot_cache_size == 0
        assert not parallel._caches
        assert parallel.estimated_bytes() <= warm_bytes - 1024 * len(steps)
        # Still sharded, still right, and the cache refills.
        assert [
            result_key(r) for r in parallel.quantiles([0.2, 0.5, 0.8])
        ] == expected
        assert parallel.shards == 2 and parallel.pivot_cache_size == len(steps)

    @pytest.mark.parametrize("parallel", [None, 2])
    def test_cache_limit_zero_memoizes_nothing_on_either_path(
        self, inline_mode, fanout_workload, parallel
    ):
        workload = fanout_workload
        off = self.prepared(workload, parallel=parallel, pivot_cache_limit=0)
        phis = PHIS[::3]
        results = off.quantiles(phis)
        assert off.shards == parallel
        assert any(r.iterations for r in results)
        answers = sorted_answers(workload.query, workload.db, workload.ranking)
        for phi, result in zip(phis, results):
            oracle = select_from_sorted(answers, workload.ranking, phi=phi)
            assert result_key(result) == result_key(oracle)
        assert off.pivot_cache_size == 0
        assert all(not steps and not answers for steps, answers in off._caches.values())


K1_SHAPES = {
    "path": lambda ranking: path_workload(3, 120, 6, ranking=ranking, seed=29),
    "star": lambda ranking: star_workload(3, 60, 5, ranking=ranking, seed=31),
}
K1_RANKINGS = {
    "sum": SumRanking(["x1", "x2"]),
    "min": MinRanking(["x1", "x2", "x3"]),
    "lex": LexRanking(["x1", "x3"]),
}


class TestOneLoopTwoSources:
    @pytest.mark.parametrize("ranking", K1_RANKINGS)
    @pytest.mark.parametrize("shape", K1_SHAPES)
    def test_k1_sharded_result_equals_serial_in_every_field(
        self, inline_mode, shape, ranking
    ):
        # Serial and sharded run the same loop over two candidate sources; a
        # single shard holds every candidate, so not only the selected rank
        # but the whole result — assignment, iterations, per-iteration
        # stats — must be equal.
        ranking = K1_RANKINGS[ranking]
        workload = K1_SHAPES[shape](ranking)
        serial = PreparedQuery(
            workload.query, workload.db, ranking, termination_factor=1
        )
        session = ParallelSession(
            ShardPlanner(1).plan(workload.query, workload.db), ranking
        )
        session.start()
        merger = RankMerger(session)
        total = serial.count()
        assert session.total == total
        caches = {"step_cache": {}, "answer_cache": {}}
        keep = set(workload.query.variables)
        termination_size = max(session.reduced_rows, 1)
        iterated = 0
        for phi in PHIS:
            merged = merger.solve(phi, None, keep, termination_size, **caches)
            assert merged == serial.quantile(phi)
            iterated += merged.iterations
        for index in range(0, total, max(1, total // 23)):
            merged = merger.solve(None, index, keep, termination_size, **caches)
            assert merged == serial.selection(index)
        assert iterated, "the sweep never entered the pivoting loop"
        session.close()
