"""ε-lossy trimming for SUM (Algorithm 4, Lemma 6.1, Figure 4)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.lossy_sum_trim import LossySumTrimmer
from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import BudgetExceededError, ExecutionCancelledError, TrimmingError
from repro.joins.counting import count_answers
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.ranking.minmax import MaxRanking
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken, ExecutionContext
from repro.testing import FaultPlan, InjectedFault, inject_faults
from tests.conftest import COMPARISONS, one_sided, pivoting


def three_path_instance(seed=0, rows=15, domain=4):
    rng = random.Random(seed)
    query = JoinQuery(
        [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3")), Atom("R3", ("x3", "x4"))]
    )
    db = Database(
        [
            Relation("R1", ("a", "b"), [(rng.randrange(10), rng.randrange(domain)) for _ in range(rows)]),
            Relation("R2", ("a", "b"), [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)]),
            Relation("R3", ("a", "b"), [(rng.randrange(domain), rng.randrange(10)) for _ in range(rows)]),
        ]
    )
    return query, db


def star_instance(seed=0, rows=12, domain=3):
    rng = random.Random(seed)
    query = JoinQuery(
        [Atom("R1", ("h", "a")), Atom("R2", ("h", "b")), Atom("R3", ("h", "c"))]
    )
    db = Database(
        [
            Relation(name, ("h", var),
                     [(rng.randrange(domain), rng.randrange(10)) for _ in range(rows)])
            for name, var in (("R1", "a"), ("R2", "b"), ("R3", "c"))
        ]
    )
    return query, db


def satisfying_weights(query, db, ranking, interval):
    return sorted(
        w for w in (ranking.weight_of(a) for a in query.answers_brute_force(db))
        if interval.contains(w)
    )


def check_lossy_guarantee(query, db, ranking, interval, epsilon, trimmed):
    """Definition 3.5: injection into the satisfying answers, losing ≤ ε of them."""
    trimmed_query, trimmed_db = trimmed
    kept = [ranking.weight_of(a) for a in trimmed_query.answers_brute_force(trimmed_db)]
    satisfying = satisfying_weights(query, db, ranking, interval)
    # Injection: every kept answer lies inside the interval ...
    for weight in kept:
        assert interval.contains(weight)
    # ... and kept answers are a sub-multiset of the satisfying ones.
    assert len(kept) <= len(satisfying)
    remaining = list(satisfying)
    for weight in sorted(kept):
        assert weight in remaining
        remaining.remove(weight)
    # Retention: at least (1 - ε) of the satisfying answers survive.
    assert len(kept) >= (1 - epsilon) * len(satisfying) - 1e-9


class TestRejections:
    def test_requires_sum_ranking(self):
        with pytest.raises(TrimmingError):
            LossySumTrimmer(MaxRanking(["x1"]), epsilon=0.1)

    def test_epsilon_range(self):
        with pytest.raises(TrimmingError):
            LossySumTrimmer(SumRanking(["x1"]), epsilon=0.0)
        with pytest.raises(TrimmingError):
            LossySumTrimmer(SumRanking(["x1"]), epsilon=1.0)

    def test_budget_values(self):
        with pytest.raises(TrimmingError):
            LossySumTrimmer(SumRanking(["x1"]), epsilon=0.2, budget="extreme")


class TestPaperFigure4:
    """Figure 4 / Example 6.4: a 2-relation instance where sketching merges sums."""

    def setup_method(self):
        self.query = JoinQuery([Atom("S", ("x", "y")), Atom("R", ("y", "z"))])
        self.db = Database(
            [
                Relation("S", ("x", "y"), [(2, 1), (3, 1), (4, 1)]),
                Relation("R", ("y", "z"), [(1, 6)]),
            ]
        )
        self.ranking = SumRanking(["x", "y", "z"])

    def test_trim_keeps_only_satisfying_answers(self):
        # Sums of x+y+z: 9, 10, 11.  Trim < 11 with a coarse epsilon.
        trimmer = LossySumTrimmer(self.ranking, epsilon=0.4)
        interval = WeightInterval(high=11)
        trimmed = trimmer.trim_interval(self.query, self.db, interval)
        check_lossy_guarantee(self.query, self.db, self.ranking, interval, 0.4, trimmed)

    def test_helper_column_added_to_both_relations(self):
        trimmer = LossySumTrimmer(self.ranking, epsilon=0.4)
        trimmed_query, _ = trimmer.trim_interval(self.query, self.db, WeightInterval(high=11))
        (helper,) = trimmed_query.variables - self.query.variables
        for atom in trimmed_query:
            assert helper in atom.variable_set
        assert trimmer.lossy

    def test_exactness_with_tiny_epsilon(self):
        """With a very small ε every bucket is a singleton, so nothing is lost."""
        trimmer = LossySumTrimmer(self.ranking, epsilon=0.001)
        interval = WeightInterval(high=11)
        trimmed_query, trimmed_db = trimmer.trim_interval(self.query, self.db, interval)
        kept = sorted(
            self.ranking.weight_of(a) for a in trimmed_query.answers_brute_force(trimmed_db)
        )
        assert kept == satisfying_weights(self.query, self.db, self.ranking, interval)


class TestGuarantees:
    @pytest.mark.parametrize("comparison", COMPARISONS)
    @pytest.mark.parametrize("epsilon", [0.05, 0.3])
    def test_three_path(self, comparison, epsilon):
        query, db = three_path_instance(seed=1)
        ranking = SumRanking(["x1", "x2", "x3", "x4"])
        trimmer = LossySumTrimmer(ranking, epsilon=epsilon)
        interval = one_sided(comparison, 14)
        trimmed = trimmer.trim_interval(query, db, interval)
        check_lossy_guarantee(query, db, ranking, interval, epsilon, trimmed)
        assert trimmed[0].is_acyclic

    def test_star_query_multiple_children(self):
        query, db = star_instance(seed=2)
        ranking = SumRanking(["a", "b", "c"])
        trimmer = LossySumTrimmer(ranking, epsilon=0.25)
        interval = WeightInterval(high=15)
        trimmed = trimmer.trim_interval(query, db, interval)
        check_lossy_guarantee(query, db, ranking, interval, 0.25, trimmed)

    @pytest.mark.parametrize("seed", [1, 5, 6])
    def test_two_sided_interval_keeps_only_original_answers_inside_it(self, seed):
        """Both bounds in one call: every kept answer, helpers dropped, is an
        original answer (as often as the original has it) whose weight lies
        inside the interval."""
        query, db = three_path_instance(seed=seed)
        ranking = SumRanking(["x1", "x2", "x3", "x4"])
        interval = WeightInterval(low=9, high=18, low_strict=False)
        trimmer = LossySumTrimmer(ranking, epsilon=0.2)
        trimmed_query, trimmed_db = trimmer.trim_interval(query, db, interval)
        originals = [tuple(sorted(a.items())) for a in query.answers_brute_force(db)]
        kept = [
            {v: value for v, value in answer.items() if v in query.variables}
            for answer in trimmed_query.answers_brute_force(trimmed_db)
        ]
        assert kept
        for answer in kept:
            assert interval.contains(ranking.weight_of(answer))
            originals.remove(tuple(sorted(answer.items())))

    def test_paper_budget_is_tighter(self):
        query, db = three_path_instance(seed=3)
        ranking = SumRanking(["x1", "x4"])
        practical = LossySumTrimmer(ranking, epsilon=0.3, budget="practical")
        paper = LossySumTrimmer(ranking, epsilon=0.3, budget="paper")
        assert paper.sketch_epsilon(query) < practical.sketch_epsilon(query)

    def test_counting_on_trimmed_instance_matches_enumeration(self):
        query, db = three_path_instance(seed=4)
        ranking = SumRanking(["x1", "x2", "x3", "x4"])
        trimmer = LossySumTrimmer(ranking, epsilon=0.2)
        trimmed_query, trimmed_db = trimmer.trim_interval(query, db, WeightInterval(high=16))
        assert count_answers(trimmed_query, trimmed_db) == len(
            trimmed_query.answers_brute_force(trimmed_db)
        )


class TestGuardrails:
    """Algorithm 4 is cooperative like every other trim: its row passes reach
    ``trim.lossy_*`` checkpoints, so budgets, cancellation and fault injection
    see it.  No wall clock anywhere — each limit is already tripped when the
    trim starts."""

    def trim(self):
        query, db = three_path_instance(seed=1)
        trimmer = LossySumTrimmer(SumRanking(["x1", "x2", "x3", "x4"]), epsilon=0.2)
        return trimmer.trim_interval(query, db, WeightInterval(high=14))

    def test_row_budget_is_charged(self):
        with ExecutionContext(max_rows=1):
            with pytest.raises(BudgetExceededError) as excinfo:
                self.trim()
        assert excinfo.value.budget == "rows"
        assert excinfo.value.checkpoint.startswith("trim.lossy_")

    def test_cancellation_is_observed(self):
        token = CancellationToken()
        token.cancel("caller went away")
        with ExecutionContext(cancellation=token):
            with pytest.raises(ExecutionCancelledError) as excinfo:
                self.trim()
        assert excinfo.value.checkpoint.startswith("trim.lossy_")

    def test_deadline_is_observed(self):
        readings = iter([0.0])  # armed at 0; every later reading is past it
        with ExecutionContext(timeout=1, clock=lambda: next(readings, 5.0)):
            with pytest.raises(BudgetExceededError) as excinfo:
                self.trim()
        assert excinfo.value.budget == "timeout"
        assert excinfo.value.checkpoint.startswith("trim.lossy_")

    @pytest.mark.faults
    @pytest.mark.parametrize(
        "name", ["trim.lossy_scan", "trim.lossy_absorb", "trim.lossy_embed"]
    )
    def test_fault_then_clean_retry_matches_an_undisturbed_run(self, name):
        query, db = three_path_instance(seed=1)
        ranking = SumRanking(["x1", "x2", "x3", "x4"])
        knobs = dict(epsilon=0.2, strategy="approx-pivot")
        undisturbed = repr(pivoting(query, db, ranking, **knobs).quantile(0.5))
        prepared = pivoting(query, db, ranking, **knobs)
        with inject_faults(FaultPlan().arm(name, after=1)) as plan:
            with pytest.raises(InjectedFault):
                prepared.quantile(0.5)
        assert plan.fired == [(name, 2)]
        assert repr(prepared.quantile(0.5)) == undisturbed


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3000),
    threshold=st.integers(min_value=0, max_value=30),
    epsilon=st.sampled_from([0.1, 0.3, 0.6]),
    upper=st.booleans(),
)
def test_lossy_trim_property_random(seed, threshold, epsilon, upper):
    query, db = three_path_instance(seed=seed, rows=10, domain=3)
    ranking = SumRanking(["x1", "x2", "x3", "x4"])
    trimmer = LossySumTrimmer(ranking, epsilon=epsilon)
    interval = one_sided("<" if upper else ">", threshold)
    trimmed = trimmer.trim_interval(query, db, interval)
    check_lossy_guarantee(query, db, ranking, interval, epsilon, trimmed)
