"""Tests for the prepared-query engine (Engine / PreparedQuery)."""

import math
import random

import pytest

from repro.baselines.materialize import select_from_sorted, sorted_answers
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine, PreparedQuery, SolverPlan
from repro.exceptions import (
    BudgetExceededError,
    ExecutionCancelledError,
    IntractableQueryError,
    RankingError,
    SolverError,
    ValidationError,
)
from repro.query.join_query import JoinQuery
from repro.query.parser import parse_ranking
from repro.ranking.minmax import MaxRanking
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken
from repro.runtime.context import set_fault_hook
from repro.testing.faults import FaultPlan, inject_faults
from repro.workloads.path import path_workload



@pytest.fixture
def engine(binary_join):
    _, db = binary_join
    return Engine(db)


@pytest.fixture
def prepared(binary_join, engine):
    query, _ = binary_join
    return engine.prepare(query, SumRanking(["x1", "x3"]))


class TestPrepare:
    def test_prepare_returns_prepared_query(self, prepared):
        assert isinstance(prepared, PreparedQuery)
        assert isinstance(prepared.plan(), SolverPlan)

    def test_prepare_accepts_string_specs(self, engine):
        prepared = engine.prepare("R1(x1, x2), R2(x2, x3)", "sum(x1, x3)")
        assert prepared.query == JoinQuery.parse("R1(x1, x2), R2(x2, x3)")
        assert prepared.ranking.weighted_variables == ("x1", "x3")
        assert prepared.count() > 0

    def test_engine_memoizes_prepared_queries(self, binary_join, engine):
        query, _ = binary_join
        first = engine.prepare(query, SumRanking(["x1", "x3"]))
        second = engine.prepare(query, SumRanking(["x1", "x3"]))
        assert first is second
        assert engine.prepared_count == 1

    def test_memoization_distinguishes_parameters(self, binary_join, engine):
        query, _ = binary_join
        a = engine.prepare(query, SumRanking(["x1", "x3"]))
        b = engine.prepare(query, SumRanking(["x1", "x3"]), strategy="materialize")
        c = engine.prepare(query, MaxRanking(["x1"]))
        assert a is not b and a is not c
        assert engine.prepared_count == 3

    def test_memoization_keys_on_resolved_values(self, binary_join, engine):
        query, _ = binary_join
        ranking = SumRanking(["x1", "x3"])
        default = engine.prepare(query, ranking)
        assert default is engine.prepare(query, ranking, termination_factor=12)
        assert default is engine.prepare(
            query, ranking, on_budget="error", timeout=None, parallel=None
        )
        assert engine.prepared_count == 1

    def test_engine_termination_factor_passthrough(self, binary_join, engine):
        query, _ = binary_join
        ranking = SumRanking(["x1", "x3"])
        default = engine.prepare(query, ranking)
        matched = engine.prepare(query, ranking, termination_factor=1)
        assert default is not matched
        assert matched.termination_factor == 1
        assert engine.prepare(query, ranking, termination_factor=1) is matched
        assert default.quantile(0.5).weight == matched.quantile(0.5).weight

    def test_clear_drops_memoized_queries(self, binary_join, engine):
        query, _ = binary_join
        engine.prepare(query, SumRanking(["x1", "x3"]))
        engine.clear()
        assert engine.prepared_count == 0

    def test_eager_prepare_raises_planning_errors(self, three_path):
        query, db = three_path
        engine = Engine(db)
        with pytest.raises(IntractableQueryError):
            engine.prepare(query, SumRanking(["x1", "x2", "x3", "x4"]))

    def test_lazy_prepare_defers_planning_errors(self, three_path):
        query, db = three_path
        engine = Engine(db)
        prepared = engine.prepare(
            query, SumRanking(["x1", "x2", "x3", "x4"]), eager=False
        )
        with pytest.raises(IntractableQueryError):
            prepared.quantile(0.5)

    def test_unknown_strategy_rejected(self, binary_join):
        query, db = binary_join
        with pytest.raises(SolverError):
            PreparedQuery(query, db, SumRanking(["x1"]), strategy="magic")

    def test_invalid_termination_factor_rejected(self, binary_join):
        query, db = binary_join
        with pytest.raises(ValidationError):
            PreparedQuery(query, db, SumRanking(["x1"]), termination_factor=0)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("termination_factor", float("nan")), ("termination_factor", float("inf")),
            ("termination_factor", -float("inf")), ("termination_factor", 1.5),
            ("termination_factor", True), ("termination_factor", "5"),
            ("timeout", float("nan")), ("timeout", float("inf")), ("timeout", True),
            ("timeout", "5"), ("max_rows", float("nan")), ("max_rows", float("inf")),
            ("max_rows", 1.5), ("max_rows", True), ("max_rows", "5"),
        ],
    )
    def test_non_finite_or_mistyped_knob_rejected(self, binary_join, knob, value):
        # A NaN termination factor used to skip Algorithm 1 altogether (the
        # cut compares false) and a NaN budget never tripped.
        query, db = binary_join
        with pytest.raises(ValidationError, match=knob):
            PreparedQuery(query, db, SumRanking(["x1"]), **{knob: value})

    @pytest.mark.parametrize("epsilon", [2.0, 1.0, 0.0, -0.1, float("nan"), True])
    @pytest.mark.parametrize("strategy", ["approx-pivot", "sampling", "auto"])
    def test_epsilon_outside_the_unit_interval_rejected(self, three_path, strategy, epsilon):
        # One check, at construction, the same typed error under every
        # strategy: approx-pivot used to accept 2.0 (only epsilon/4 was
        # range-checked) and to report -0.1 as a TrimmingError about -0.025.
        query, db = three_path
        with pytest.raises(ValidationError, match="epsilon"):
            PreparedQuery(
                query, db, SumRanking(["x1", "x2", "x3", "x4"]),
                strategy=strategy, epsilon=epsilon,
            )

    @pytest.mark.parametrize("seed", [1.5, True, [1], "7"])
    def test_a_seed_that_is_not_an_int_is_rejected(self, binary_join, engine, seed):
        # [1] used to escape as a TypeError from the memo key's hash, while
        # 1.5 and True were accepted although the service refuses them.
        query, _ = binary_join
        with pytest.raises(ValidationError, match="seed"):
            engine.prepare(query, SumRanking(["x1"]), strategy="sampling", epsilon=0.1, seed=seed)

    def test_ranking_validated_against_query(self, binary_join):
        query, db = binary_join
        with pytest.raises(RankingError):
            PreparedQuery(query, db, SumRanking(["nope"]))


class TestPreparedStateReuse:
    def test_plan_computed_once(self, prepared):
        assert prepared.plan() is prepared.plan()

    def test_classification_computed_once(self, prepared):
        assert prepared.classification() is prepared.classification()

    def test_canonicalization_computed_once(self, prepared, monkeypatch):
        import repro.engine as engine_module

        def forbidden(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("ensure_canonical re-ran after preparation")

        monkeypatch.setattr(engine_module, "ensure_canonical", forbidden)
        prepared.quantile(0.25)
        prepared.quantile(0.75)
        prepared.selection(0)
        assert prepared.count() > 0

    def test_count_computed_once(self, prepared, monkeypatch):
        import repro.engine as engine_module

        total = prepared.count()

        def forbidden(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("the answer count was recomputed")

        monkeypatch.setattr(engine_module, "count_from_tree", forbidden)
        assert prepared.count() == total
        assert prepared.quantile(0.5).total_answers == total

    def test_pivot_cache_reused_across_calls(self, prepared):
        prepared.quantile(0.5)
        entries_after_first = prepared.pivot_cache_size
        prepared.quantile(0.5)
        assert prepared.pivot_cache_size == entries_after_first

    def test_clear_pivot_cache(self, prepared):
        prepared.quantile(0.5)
        prepared.clear_pivot_cache()
        assert prepared.pivot_cache_size == 0
        assert len(prepared.tree_cache) == 0
        # Still answers correctly after the cache is dropped.
        assert prepared.quantile(0.5).exact

    @pytest.mark.parametrize("parallel", [None, 2])
    def test_estimated_bytes_charges_cached_terminal_columns(
        self, binary_join, parallel, inline_mode
    ):
        # The service's byte-budget eviction only sees what this estimate
        # charges: a cached terminal costs what it actually holds.  Serial
        # (approx-pivot's sorted terminal), that is the sorted prefix answers
        # (R2 only multiplies SUM(x1, x2): it is deferred) plus each memoized
        # pick; sharded, the merged cover pairs plus each memoized pick.
        query, db = binary_join
        if parallel:
            prepared = PreparedQuery(query, db, SumRanking(["x1", "x3"]), parallel=parallel)
        else:
            prepared = PreparedQuery(
                query, db, SumRanking(["x1", "x2"]), strategy="approx-pivot", epsilon=0.1
            )
        prepared.quantile(0.5)
        [(_, cache)] = prepared._caches.values()
        [terminal] = cache.values()
        assert len(terminal) == prepared.count()
        one_pick = prepared.estimated_bytes()
        prepared.quantile(0.5)
        assert prepared.estimated_bytes() == one_pick
        prepared.quantile(0.25)
        if parallel:
            # Per merged pair its (shard, R row, S row) key; per pick 64.
            assert prepared.shards == parallel
            held = 24 * len(terminal.keys) + 64 * 2
            assert prepared.estimated_bytes() == one_pick + 64
        else:
            # Per prefix answer a weight, R1's row index and a running total;
            # per pick a weight and three values.
            prefix = len(terminal._weights)
            assert terminal._deferred == [1] and prefix < len(terminal)
            held = 8 * (3 * prefix + 2 * (1 + 3))
            assert prepared.estimated_bytes() == one_pick + 8 * (1 + 3)
        with_entry = prepared.estimated_bytes()
        cache.clear()
        assert with_entry - prepared.estimated_bytes() == held

    @pytest.mark.parametrize("parallel", [None, 2])
    def test_returned_assignments_are_independent_across_calls(
        self, binary_join, parallel, inline_mode
    ):
        # The terminal memoizes its picks; every caller still owns its dict.
        query, db = binary_join
        prepared = PreparedQuery(query, db, SumRanking(["x1", "x3"]), parallel=parallel)
        first = prepared.quantile(0.5)
        expected = dict(first.assignment)
        first.assignment["x1"] = "mutated"
        first.assignment.pop("x3")
        again = prepared.quantile(0.5)
        assert again.assignment == expected and list(again.assignment) == list(expected)
        assert again.assignment is not prepared.quantile(0.5).assignment

    def test_tree_cache_shared_across_batch(self, prepared):
        prepared.quantiles([0.2, 0.5, 0.8])
        # Preparation + the batch hit the cache at least once (e.g. pivot
        # selection reusing the tree the counting pass built).
        assert prepared.tree_cache.hits > 0
        # A repeated batch is served without building a single new tree.
        misses = prepared.tree_cache.misses
        prepared.quantiles([0.2, 0.5, 0.8])
        assert prepared.tree_cache.misses == misses

    def test_materialize_strategy_prepares_and_caches(self, binary_join, engine, monkeypatch):
        query, _ = binary_join
        prepared = engine.prepare(query, SumRanking(["x1", "x3"]), strategy="materialize")
        import repro.baselines.materialize as materialize_module

        def forbidden(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("materialization re-ran after eager prepare")

        monkeypatch.setattr(materialize_module, "sorted_answers", forbidden)
        results = prepared.quantiles([0.25, 0.5, 0.75])
        assert all(r.strategy == "materialize" and r.exact for r in results)
        assert all(r.iterations == 0 for r in results)  # zero pivot steps


class TestExecution:
    def test_batch_preserves_input_order(self, prepared):
        results = prepared.quantiles([0.9, 0.1, 0.5])
        assert results[0].target_index >= results[2].target_index >= results[1].target_index

    def test_batch_rejects_invalid_phi(self, prepared):
        with pytest.raises(ValueError):
            prepared.quantiles([0.5, 1.5])
        with pytest.raises(ValueError):
            prepared.quantiles([0.5, "oops"])

    def test_median(self, prepared):
        assert prepared.median().weight == prepared.quantile(0.5).weight

    def test_sampling_selection_hits_requested_index(self, three_path):
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3", "x4"])
        prepared = Engine(db).prepare(
            query, ranking, epsilon=0.3, strategy="sampling", seed=3
        )
        total = prepared.count()
        for index in (0, 1, total // 2, total - 1):
            assert prepared.selection(index).target_index == index

    @pytest.mark.parametrize(
        "ranking", ["sum(x1, x4)", "min(x1, x3)", "max(x1, x4)", "lex(x1, x3)"]
    )
    def test_answers_carry_the_relations_own_objects(self, ranking):
        """Weighted columns mixing ``True``, ints and floats, 3000 rows of
        them in ``R`` so that a trim keeps well over a thousand: answers must
        hold the relations' own objects — ``True``, not ``1`` (an
        array-backed gather once returned the coerced stand-in)."""
        r_rows = [((True, i + 2)[i % 2], i % 10) for i in range(3000)]
        # Ints and floats spread over x1's range, ascending in x3 and
        # descending in x4, so MIN / MAX / LEX trims cut into both relations.
        s_rows = [
            (j % 10, 20 * j + (1 if j % 2 else 0.5), 3000 - 20 * j + (0 if j % 2 else 0.5))
            for j in range(150)
        ]
        db = Database(
            [Relation("R", ("x1", "x2"), r_rows), Relation("S", ("x2", "x3", "x4"), s_rows)]
        )
        query = JoinQuery.parse("R(x1, x2), S(x2, x3, x4)")
        phis = [0.0, 0.005, 0.01, 0.2, 0.5, 0.9, 1.0]
        parsed = parse_ranking(ranking)
        oracle = sorted_answers(query, db, parsed)
        own_rows = {repr(row) for row in r_rows} | {repr(row) for row in s_rows}
        for knobs in ({"termination_factor": 1}, {}):
            prepared = PreparedQuery(query, db, ranking, **knobs)
            for phi, result in zip(phis, prepared.quantiles(phis)):
                expected = select_from_sorted(oracle, parsed, phi=phi)
                assert result.iterations > 0
                assert result.target_index == expected.target_index
                # repr tells True from 1 from 1.0.
                assert repr(result.weight) == repr(expected.weight)
                answer = result.assignment
                assert repr((answer["x1"], answer["x2"])) in own_rows
                assert repr((answer["x2"], answer["x3"], answer["x4"])) in own_rows
                assert repr(parsed.weight_of(answer)) == repr(expected.weight)

    def test_join_tree_exposed(self, prepared):
        tree = prepared.join_tree()
        assert tree is prepared.join_tree()
        assert len(tree.tree.nodes()) == len(prepared.query.atoms)


PATH_QUERY = "R1(x1,x2), R2(x2,x3), R3(x3,x4)"
PHIS = [i / 20 for i in range(1, 20)]
#: (ranking, knobs): three exact-pivot rankings, the approx-pivot one, and
#: materialize.
REPLAYED = [
    ("sum(x1, x2)", {}),
    ("max(x1, x4)", {}),
    ("lex(x1, x4)", {}),
    ("sum(x1, x2, x3, x4)", {"epsilon": 0.1}),
    ("sum(x1, x2)", {"strategy": "materialize"}),
]


@pytest.fixture(scope="module")
def path_db():
    return path_workload(3, 50, 6, seed=5).db


class TestCached:
    """``PreparedQuery.cached``: a warm call replayed from the caches alone."""

    @pytest.mark.parametrize("ranking, knobs", REPLAYED)
    def test_a_warm_replay_computes_nothing(self, path_db, ranking, knobs):
        prepared = Engine(path_db).prepare(PATH_QUERY, ranking, **knobs)
        prepared.quantiles(PHIS)
        with inject_faults(FaultPlan()) as plan:
            assert all(prepared.cached(phi=phi) is not None for phi in PHIS)
        # materialize takes zero pivot steps: its replay passes no checkpoint.
        assert plan.seen["quantile.iteration"] > 0 or prepared.plan().strategy == "materialize"
        assert set(plan.seen) <= {"quantile.iteration", "yannakakis.decode"}

    def test_nothing_memoized_is_none(self, path_db):
        prepared = Engine(path_db).prepare(PATH_QUERY, "sum(x1, x2)")
        assert prepared.cached(phi=0.5) is None  # prepared, never run
        prepared.quantile(0.5)
        assert prepared.cached(phi=0.5) is not None
        prepared.clear_pivot_cache()
        assert prepared.cached(phi=0.5) is None

    def test_a_sampling_plan_answers_from_its_held_sample(self, path_db):
        knobs = {"strategy": "sampling", "epsilon": 0.1, "seed": 3}
        prepared = PreparedQuery(PATH_QUERY, path_db, "sum(x1, x2)", **knobs)
        assert prepared.cached(phi=0.5) is None  # nothing drawn yet
        cold = prepared.quantiles(PHIS) + [prepared.selection(7)]
        with inject_faults(FaultPlan()) as plan:
            replayed = [prepared.cached(phi=phi) for phi in PHIS] + [prepared.cached(index=7)]
        assert repr(replayed) == repr(cold)
        assert not plan.seen
        prepared.clear_pivot_cache()
        assert prepared.cached(phi=0.5) is None

    def test_a_sharded_query_is_none(self, path_db, inline_mode):
        prepared = PreparedQuery(PATH_QUERY, path_db, "sum(x1, x3)", parallel=2)
        try:
            prepared.quantile(0.5)
            assert prepared.shards == 2
            assert prepared.cached(phi=0.5) is None
        finally:
            prepared.close()


NAN_X1 = [((1.0, 2.0, 3.0, math.nan)[i % 4], i % 5) for i in range(40)]
#: (query, two-column tables, ranking, error message) per case: a variable
#: weighing NaN, or a SUM adding +inf to -inf where no variable weighs NaN.
NAN_CASES = {
    **{
        ranking: (
            "R(x1, x2), S(x2, x3)",
            {"R": NAN_X1, "S": [(i % 5, float(i % 7)) for i in range(40)]},
            ranking,
            "x1 = nan",
        )
        for ranking in ("sum(x1, x3)", "min(x1, x3)", "max(x1, x3)", "lex(x1, x3)")
    },
    "sum(x, z) of inf and -inf": (
        "R(x, y), S(y, z)",
        {"R": [(0, 0), (math.inf, 1)], "S": [(0, 0), (1, -math.inf)]},
        "sum(x, z)",
        r"adds \+inf to -inf",
    ),
    # v1 = inf weighs 1 - 2.5 * inf = -inf, v0 = inf weighs inf.
    "one-atom sum of inf and -inf": (
        "R0(v0, v1), R0(v1, v2)",
        {"R0": [(0, 0), (0, 0), (0, 0), (True, 0), (math.inf, math.inf)]},
        SumRanking(["v1", "v0"], {"v1": lambda v: 1 - 2.5 * v}),
        r"adds \+inf to -inf",
    ),
}


def nan_engine(case):
    query, tables, ranking, message = NAN_CASES[case]
    db = Database([Relation(name, ("a", "b"), rows) for name, rows in tables.items()])
    return Engine(db), query, ranking, message


class TestNanWeights:
    """NaN has no order: every strategy refuses it with a typed error
    instead of answering from an inconsistent sort."""

    @pytest.mark.parametrize("case", NAN_CASES)
    @pytest.mark.parametrize(
        "knobs",
        [
            {"strategy": "exact-pivot"},
            {"strategy": "exact-pivot", "termination_factor": 1},
            {"strategy": "sampling", "epsilon": 0.1, "seed": 3},
            {"strategy": "materialize"},
        ],
        ids=["exact-pivot", "exact-pivot-factor-1", "sampling", "materialize"],
    )
    def test_every_strategy_raises_ranking_error(self, case, knobs):
        engine, query, ranking, message = nan_engine(case)
        prepared = engine.prepare(query, ranking, eager=False, **knobs)
        with pytest.raises(RankingError, match=message):
            prepared.quantiles([0.0, 0.5, 1.0])

    def test_approx_pivot_raises_ranking_error(self):
        engine, query, ranking, message = nan_engine("sum(x1, x3)")
        prepared = engine.prepare(
            query, ranking, eager=False, strategy="approx-pivot", epsilon=0.1
        )
        with pytest.raises(RankingError, match=message):
            prepared.quantile(0.5)


def triangle(rows, seed=3):
    """A cyclic triangle join: ``rows`` random rows per relation."""
    rng = random.Random(seed)
    query = JoinQuery.parse("R(x, y), S(y, z), T(z, x)")
    db = Database(
        [
            Relation(name, ("a", "b"), [(rng.randrange(20), rng.randrange(20)) for _ in range(rows)])
            for name in "RST"
        ]
    )
    return query, db


class TestCyclicMaterialize:
    """``materialize`` is the one strategy a cyclic query can run: its
    nested-loop join honors budgets and cancellation, and ``count()`` agrees
    with its quantiles."""

    @pytest.mark.parametrize("eager", [True, False])
    def test_count_agrees_with_quantile(self, eager):
        query, db = triangle(30)
        prepared = Engine(db).prepare(query, "sum(x, y)", strategy="materialize", eager=eager)
        total = prepared.count()
        assert total == len(query.answers_brute_force(db)) > 0
        assert prepared.quantile(0.5).total_answers == total

    def test_an_acyclic_count_does_not_materialize(self, binary_join, monkeypatch):
        import repro.baselines.materialize as materialize_module

        query, db = binary_join
        prepared = Engine(db).prepare(query, "sum(x1, x3)", strategy="materialize", eager=False)
        monkeypatch.setattr(materialize_module, "sorted_answers", None)
        assert prepared.count() == len(query.answers_brute_force(db))

    def test_row_budget_trips_inside_the_join(self):
        query, db = triangle(60)
        prepared = Engine(db).prepare(
            query, "sum(x, y)", strategy="materialize", max_rows=1000, eager=False
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            prepared.quantile(0.5)
        assert excinfo.value.budget == "rows"
        assert excinfo.value.checkpoint == "materialize.brute_force"

    def test_timeout_trips_inside_the_join(self):
        # Unguarded, this join takes about half a second.
        query, db = triangle(400)
        prepared = Engine(db).prepare(
            query, "sum(x, y)", strategy="materialize", timeout=0.05, eager=False
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            prepared.quantile(0.5)
        assert excinfo.value.budget == "timeout"

    def test_no_approximate_rung_applies(self):
        # approx-pivot and sampling need a join tree: both rungs are skipped.
        query, db = triangle(60)
        prepared = Engine(db).prepare(
            query, "sum(x, y)", strategy="materialize", epsilon=0.3, max_rows=1000,
            on_budget="degrade", eager=False,
        )
        with pytest.raises(BudgetExceededError):
            prepared.quantile(0.5)

    def test_cancellation_reaches_the_join(self):
        query, db = triangle(60)
        token = CancellationToken()
        seen = []

        def cancel_mid_join(name):
            seen.append(name)
            if seen.count("materialize.brute_force") == 2:
                token.cancel("shutting down")

        prepared = Engine(db).prepare(
            query, "sum(x, y)", strategy="materialize", cancellation=token, eager=False
        )
        previous = set_fault_hook(cancel_mid_join)
        try:
            with pytest.raises(ExecutionCancelledError):
                prepared.quantile(0.5)
        finally:
            set_fault_hook(previous)
