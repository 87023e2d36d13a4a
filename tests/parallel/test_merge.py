"""Merge correctness: parallel answers are bit-identical to serial ones.

All tests here run the pools inline (the ``inline_mode`` fixture) so
they are deterministic and fork-free; real process pools are exercised in
``test_process_pool.py``.
"""

from __future__ import annotations

import random

import pytest

import repro.engine
from repro.baselines.materialize import select_from_sorted, sorted_answers
from repro.core.quantile import run_pivoting
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine, PreparedQuery
from repro.exceptions import SolverError
from repro.parallel import worker
from repro.parallel.merger import ParallelSession, RankMerger
from repro.parallel.planner import ShardPlanner
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
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

    def test_a_large_relation_without_the_partition_variable(self, inline_mode):
        # R3 has 1 200 rows and no x2: every shard holds all of it.
        rng = random.Random(5)
        db = Database(
            [
                Relation("R1", ("x1", "x2"), [(rng.randrange(500), i % 10) for i in range(1600)]),
                Relation("R2", ("x2", "x3"), [(i % 10, rng.randrange(8)) for i in range(30)]),
                Relation("R3", ("x3", "x4"), [(i % 8, rng.randrange(90)) for i in range(1200)]),
            ]
        )
        query, ranking = "R1(x1, x2), R2(x2, x3), R3(x3, x4)", "sum(x1, x3)"
        serial = Engine(db).prepare(query, ranking)
        parallel = Engine(db).prepare(query, ranking, parallel=2)
        plan = parallel._parallel_plan
        assert plan.broadcast == ("R3",) and plan.partition_variable == "x2"
        assert [result_key(r) for r in parallel.quantiles(PHIS)] == [
            result_key(r) for r in serial.quantiles(PHIS)
        ]
        total = serial.count()
        for index in (0, total // 3, total - 1):
            assert result_key(parallel.selection(index)) == result_key(
                serial.selection(index)
            )

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_tie_heavy_terminals_with_an_empty_shard(self, inline_mode, shards):
        # x2 picks both the shard and the weight range (100 * x2 + 0..3), so
        # a terminal interval usually lies inside one key's range — the other
        # shards' terminals are empty — and every weight is tied many times:
        # the merged pairs must still select exactly the serial rank.
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

        def recording_terminal(interval, handle, keep):
            terminal_counts.append(handle[1])  # (fold bounds, per-shard counts)
            return merge_terminal(interval, handle, keep)

        merger.terminal = recording_terminal
        assert session.total == serial.count() == 480
        for index in range(0, 480, 7):
            merged = merger.solve(None, index, set(query.variables), db.size)
            assert result_key(merged) == result_key(serial.selection(index))
        assert terminal_counts
        if shards > 1:
            assert any(0 in counts for counts in terminal_counts)


class TestSessionLifecycle:
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
        self, inline_mode, fanout_workload, parallel, monkeypatch
    ):
        monkeypatch.setattr(repro.engine, "DEFAULT_PIVOT_CACHE_LIMIT", 0)
        monkeypatch.setattr(repro.engine, "DEFAULT_ANSWER_CACHE_LIMIT", 0)
        workload = fanout_workload
        off = self.prepared(workload, parallel=parallel)
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


#: Per shape a SUM whose weighted variables need two adjacent atoms (the
#: path's x1 and x3; two star arms): what shards.
K1_SHAPES = {
    "path": lambda: path_workload(3, 120, 6, ranking=SumRanking(["x1", "x3"]), seed=29),
    # The pair R2-R3 lies below the root: the source reroots the shard's tree.
    "path-inner": lambda: path_workload(3, 120, 6, ranking=SumRanking(["x2", "x4"]), seed=29),
    "star": lambda: star_workload(3, 60, 5, ranking=SumRanking(["x1", "x2"]), seed=31),
}


class TestOneLoopTwoSources:
    @pytest.mark.parametrize("ranking", ["sum"])
    @pytest.mark.parametrize("shape", K1_SHAPES)
    def test_k1_sharded_result_equals_serial_in_every_field(
        self, inline_mode, shape, ranking
    ):
        # Serial and sharded run the same loop over two candidate sources; a
        # single shard holds every candidate, so not only the selected rank
        # but the whole result — assignment, iterations, per-iteration
        # stats — must be equal.
        workload = K1_SHAPES[shape]()
        ranking = workload.ranking
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
        algorithm1 = serial._ensure_source("exact-pivot")
        caches = {"step_cache": {}, "answer_cache": {}}
        serial_caches = {"step_cache": {}, "answer_cache": {}}
        keep = set(workload.query.variables)
        termination_size = max(session.reduced_rows, 1)

        def serial_run(phi, index):
            return run_pivoting(
                algorithm1, phi, index, keep, termination_size, **serial_caches
            )

        iterated = 0
        for phi in PHIS:
            merged = merger.solve(phi, None, keep, termination_size, **caches)
            assert merged == serial_run(phi, None)
            assert result_key(merged) == result_key(serial.quantile(phi))
            iterated += merged.iterations
        for index in range(0, total, max(1, total // 23)):
            merged = merger.solve(None, index, keep, termination_size, **caches)
            assert merged == serial_run(None, index)
            assert result_key(merged) == result_key(serial.selection(index))
        assert iterated, "the sweep never entered the pivoting loop"
        session.close()


@pytest.mark.parametrize(
    "ranking",
    ["min(x1, x2, x3)", "max(x1, x3)", "lex(x1, x3)", "lex(x4, x2, x1)", "sum(x1, x2)"],
)
def test_only_sum_shards_every_other_ranking_runs_serial(inline_mode, ranking):
    # MIN, MAX, LEX and a SUM on one atom (R1 holds x1 and x2) bisect keys on
    # the base tree, whose shard-local key indices do not merge: parallel=2
    # records why it does not shard and returns the serial result, repr for
    # repr.
    workload = path_workload(3, 120, 6, seed=29)
    serial = Engine(workload.db).prepare(workload.query, ranking, termination_factor=1)
    sharded = Engine(workload.db).prepare(
        workload.query, ranking, termination_factor=1, parallel=2
    )
    assert sharded.shards is None
    assert serial.ranking.describe() in sharded.parallel_note
    total = serial.count()
    assert [repr(r) for r in sharded.quantiles(PHIS)] == [
        repr(r) for r in serial.quantiles(PHIS)
    ]
    for index in (0, total // 3, total - 1):
        assert repr(sharded.selection(index)) == repr(serial.selection(index))
    assert sharded.cached(phi=0.5) == serial.quantile(0.5)


class TestCoverShards:
    """Each shard worker holds the serial ``CoverCounting`` over its shard."""

    def start(self, query, db, ranking, shards):
        session = ParallelSession(ShardPlanner(shards).plan(query, db), ranking)
        session.start()
        return session

    def sources(self, session):
        base = session._pool._state_base
        return [worker._SHARD_STATES[base + s].source for s in range(session.num_shards)]

    def test_init_reduces_and_counts_but_builds_no_source(self, inline_mode, fanout_workload):
        workload = fanout_workload
        session = self.start(workload.query, workload.db, workload.ranking, 2)
        assert session.total == Engine(workload.db).count(workload.query)
        assert all(source._built is None for source in self.sources(session))
        RankMerger(session).solve(0.5, None, set(workload.query.variables), 1)
        assert all(source._built is not None for source in self.sources(session))
        session.close()

    def test_a_one_atom_sum_is_refused_by_the_workers(self, inline_mode):
        workload = path_workload(3, 60, 6, ranking=SumRanking(["x1", "x2"]), seed=3)
        session = ParallelSession(
            ShardPlanner(2).plan(workload.query, workload.db), workload.ranking
        )
        with pytest.raises(SolverError, match="no cover pair"):
            session.start()
        session.close()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_the_merged_terminal_keeps_equal_folds_in_shard_order(self, inline_mode, shards):
        # Four keys, three distinct folds per key: ties within and across shards.
        r = Relation("R", ("x1", "x2"), [(i % 3, i % 4) for i in range(48)])
        s = Relation("S", ("x2", "x3"), [(i % 4, i % 2) for i in range(16)])
        query, ranking = JoinQuery.parse("R(x1,x2), S(x2,x3)"), SumRanking(["x1", "x3"])
        session = self.start(query, Database([r, s]), ranking, shards)
        merger = RankMerger(session)
        terminal = merger.terminal(WeightInterval(), merger.root, query.variables)
        pairs = [source.pairs((None, None)) for source in self.sources(session)]
        expected = sorted(
            ((p[0], shard, *p[2:]) for shard, own in enumerate(pairs) for p in own),
            key=lambda p: p[0],
        )
        assert terminal.keys == [p[1:] for p in expected]
        assert len(terminal) == session.total
        assert len({p[0] for p in expected}) < len(expected)  # ties exist
        session.close()

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_each_round_counts_what_the_serial_source_counts(self, inline_mode, shards):
        # Per-shard counts at the proposer's fold are mergeable: each shard's
        # lt / gt is its own source's split, and their sums are the serial
        # source's split of the same fold bounds.
        workload = path_workload(3, 90, 6, ranking=SumRanking(["x1", "x3"]), seed=11)
        serial = PreparedQuery(workload.query, workload.db, workload.ranking)
        source = serial._ensure_source("exact-pivot")
        session = self.start(workload.query, workload.db, workload.ranking, shards)
        merger, shard_sources = RankMerger(session), self.sources(session)
        pending, rounds = [merger.root], 0
        while pending and rounds < 12:
            handle = pending.pop(0)
            if sum(handle[1]) < 2:
                continue
            step = merger.step(WeightInterval(), handle)
            rounds += 1
            bounds, fold = handle[0], step.lt[0][1]
            assert (step.count_lt, step.count_gt) == source.split(source.ranges(bounds), fold)
            for shard, shard_source in enumerate(shard_sources):
                own = shard_source.split(shard_source.ranges(bounds), fold) if handle[1][shard] else (0, 0)
                assert (step.lt[1][shard], step.gt[1][shard]) == own
            assert (step.lt[0], step.gt[0]) == ((bounds[0], fold), (fold, bounds[1]))
            pending += [step.lt, step.gt]
        assert rounds >= 3
        session.close()

    def test_a_warm_batch_never_fans_out(self, inline_mode, fanout_workload):
        workload = fanout_workload
        prepared = PreparedQuery(workload.query, workload.db, workload.ranking, parallel=2)
        cold = prepared.quantiles(PHIS)
        session, rounds = prepared._parallel_session, []
        fan_out = session.fan_out

        def counted(tasks):
            rounds.append(list(tasks))
            return fan_out(rounds[-1])

        session.fan_out = counted
        assert prepared.quantiles(PHIS) == cold
        assert rounds == []
        prepared.close()
