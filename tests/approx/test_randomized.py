"""The sampling strategy (Section 3.1): one sample per prepared query."""

import math
import random
from operator import itemgetter

import pytest

from repro.approx.randomized import DELTA, REPETITIONS, SampledAnswers
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine, PreparedQuery
from repro.exceptions import EmptyResultError, ValidationError
from repro.joins.direct_access import DirectAccess
from repro.query.join_query import JoinQuery
from repro.ranking.sum import SumRanking
from repro.testing import FaultPlan, inject_faults

from tests.conftest import brute_force_weights, quantile_target

FULL = SumRanking(["x1", "x2", "x3", "x4"])


def sampling(query, db, ranking=FULL, epsilon=0.2, seed=1):
    return PreparedQuery(query, db, ranking, strategy="sampling", epsilon=epsilon, seed=seed)


def per_call_median(query, db, ranking, phi, epsilon, seed):
    """What each call drew before the sample was held: ``⌈ln(2/δ)⌉``
    repetitions of ``⌈ln(4/δ)/2ε²⌉`` answers from a fresh
    ``random.Random(seed)``, each sorted by weight, and the upper median of
    their ``⌊φ·m⌋``-th answers."""
    access = DirectAccess(query, db)
    rng = random.Random(seed)
    size = math.ceil(math.log(4 / DELTA) / (2 * epsilon * epsilon))
    estimates = []
    for _ in range(REPETITIONS):
        sample = [access[rng.randrange(len(access))] for _ in range(size)]
        sample.sort(key=ranking.weight_of)
        chosen = sample[min(size - 1, math.floor(phi * size))]
        estimates.append((ranking.weight_of(chosen), chosen))
    estimates.sort(key=itemgetter(0))
    return estimates[len(estimates) // 2]


class TestSamplingStrategy:
    def test_returns_a_real_answer(self, three_path):
        query, db = three_path
        result = sampling(query, db).quantile(0.5)
        assert query.satisfies(result.assignment, db)
        assert result.weight == FULL.weight_of(result.assignment)
        assert (result.strategy, result.exact, result.epsilon) == ("sampling", False, 0.2)

    def test_error_within_epsilon_with_high_probability(self, three_path):
        """With a fixed seed the observed rank error must respect epsilon."""
        query, db = three_path
        weights = brute_force_weights(query, db, FULL)
        total = len(weights)
        epsilon = 0.15
        failures = 0
        phis = (0.25, 0.5, 0.75)
        for seed in range(5):
            results = sampling(query, db, epsilon=epsilon, seed=seed).quantiles(phis)
            for phi, result in zip(phis, results):
                target = quantile_target(phi, total)
                below = sum(1 for w in weights if w < result.weight)
                at_most = sum(1 for w in weights if w <= result.weight)
                if not (below <= target + epsilon * total and at_most - 1 >= target - epsilon * total):
                    failures += 1
        assert failures == 0

    def test_deterministic_given_seed(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x3"])
        first = sampling(query, db, ranking, seed=9).quantiles([0.3, 0.7])
        second = sampling(query, db, ranking, seed=9).quantiles([0.3, 0.7])
        assert repr(first) == repr(second)

    def test_more_precision_draws_more_samples(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x3"])
        loose = sampling(query, db, ranking, epsilon=0.3)._ensure_source("sampling")
        tight = sampling(query, db, ranking, epsilon=0.05)._ensure_source("sampling")
        assert isinstance(loose, SampledAnswers) and isinstance(tight, SampledAnswers)
        assert len(loose.samples) == len(tight.samples) == REPETITIONS == 4
        assert tight.size > loose.size == math.ceil(math.log(4 / DELTA) / (2 * 0.3**2))

    @pytest.mark.parametrize("epsilon", [0.05, 0.3])
    def test_each_phi_is_the_per_call_median_of_the_same_draws(self, three_path, epsilon):
        query, db = three_path
        phis = [0.0, 0.1, 0.5, 0.9, 1.0]
        for phi, result in zip(phis, sampling(query, db, epsilon=epsilon, seed=4).quantiles(phis)):
            weight, assignment = per_call_median(query, db, FULL, phi, epsilon, seed=4)
            assert (repr(result.weight), result.assignment) == (repr(weight), assignment)

    def test_the_sample_is_drawn_once(self, three_path):
        query, db = three_path
        prepared = sampling(query, db)
        with inject_faults(FaultPlan()) as plan:
            cold = prepared.quantiles([0.1, 0.5, 0.9])
        source = prepared._ensure_source("sampling")
        assert plan.seen["sampling.sample"] == len(source.samples) * source.size
        assert plan.seen["sampling.estimate"] == len(source.samples)
        with inject_faults(FaultPlan()) as plan:
            warm = prepared.quantiles([0.1, 0.5, 0.9])
        assert plan.seen["sampling.sample"] == 0
        assert repr(warm) == repr(cold)

    def test_a_phi_alone_equals_the_same_phi_in_a_batch_in_another_order(self, three_path):
        query, db = three_path
        alone = sampling(query, db, seed=5).quantile(0.3)
        batch = sampling(query, db, seed=5).quantiles([0.9, 0.3, 0.1])
        assert repr(batch[1]) == repr(alone)

    def test_clearing_the_caches_redraws(self, three_path):
        query, db = three_path
        prepared = sampling(query, db)
        before = prepared.quantiles([0.2, 0.8])
        held = prepared._ensure_source("sampling")
        prepared.clear_pivot_cache()
        with inject_faults(FaultPlan()) as plan:
            after = prepared.quantiles([0.2, 0.8])
        assert prepared._ensure_source("sampling") is not held
        assert plan.seen["sampling.sample"] == len(held.samples) * held.size
        assert repr(after) == repr(before)  # the same seed draws the same sample

    def test_an_unseeded_sample_is_drawn_once_per_prepared_query(self, three_path):
        query, db = three_path
        engine = Engine(db)
        first = engine.prepare(query, FULL, strategy="sampling", epsilon=0.2)
        again = engine.prepare(query, FULL, strategy="sampling", epsilon=0.2)
        assert again is first
        phis = [i / 10 for i in range(11)]
        assert repr(again.quantiles(phis)) == repr(first.quantiles(phis))

    def test_estimated_bytes_charge_the_held_sample(self, three_path):
        query, db = three_path
        prepared = sampling(query, db, epsilon=0.05).prepare()
        source = prepared._ensure_source("sampling")
        held = len(source.samples) * source.size * (len(query.variables) + 1) * 16
        assert source.estimated_bytes() == held
        assert prepared.estimated_bytes() > held

    def test_an_empty_join_prepares_and_answers_empty_result_error(self):
        query = JoinQuery.parse("R(x, y), S(y, z)")
        db = Database([Relation("R", ("a", "b"), [(1, 2)]), Relation("S", ("a", "b"), [(9, 9)])])
        prepared = sampling(query, db, SumRanking(["x", "z"])).prepare()
        assert prepared._ensure_source("sampling").samples == []
        with pytest.raises(EmptyResultError):
            prepared.quantile(0.5)

    @pytest.mark.parametrize(
        "phi,epsilon", [(-0.1, 0.1), (True, 0.1), (0.5, 0.0), (0.5, 1.5)],
    )
    def test_parameter_validation(self, binary_join, phi, epsilon):
        query, db = binary_join
        with pytest.raises(ValidationError):
            sampling(query, db, SumRanking(["x1"]), epsilon=epsilon).quantile(phi)
