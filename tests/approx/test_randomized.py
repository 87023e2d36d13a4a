"""Randomized sampling approximation (Section 3.1)."""

import pytest

from repro.approx.randomized import sampling_quantile
from repro.ranking.sum import SumRanking

from tests.conftest import brute_force_weights, quantile_target


class TestSamplingQuantile:
    def test_returns_a_real_answer(self, three_path):
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3", "x4"])
        result = sampling_quantile(query, db, ranking, phi=0.5, epsilon=0.2, seed=1)
        assert query.satisfies(result.assignment, db)
        assert result.weight == ranking.weight_of(result.assignment)
        assert result.samples_used == result.repetitions * (
            result.samples_used // result.repetitions
        )

    def test_error_within_epsilon_with_high_probability(self, three_path):
        """With a fixed seed the observed rank error must respect epsilon."""
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3", "x4"])
        weights = brute_force_weights(query, db, ranking)
        total = len(weights)
        epsilon = 0.15
        failures = 0
        for seed in range(5):
            for phi in (0.25, 0.5, 0.75):
                result = sampling_quantile(
                    query, db, ranking, phi=phi, epsilon=epsilon, seed=seed
                )
                target = quantile_target(phi, total)
                below = sum(1 for w in weights if w < result.weight)
                at_most = sum(1 for w in weights if w <= result.weight)
                if not (below <= target + epsilon * total and at_most - 1 >= target - epsilon * total):
                    failures += 1
        assert failures == 0

    def test_deterministic_given_seed(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x3"])
        first = sampling_quantile(query, db, ranking, phi=0.3, epsilon=0.2, seed=9)
        second = sampling_quantile(query, db, ranking, phi=0.3, epsilon=0.2, seed=9)
        assert first.weight == second.weight

    def test_more_precision_uses_more_samples(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x3"])
        loose = sampling_quantile(query, db, ranking, phi=0.5, epsilon=0.3, seed=0)
        tight = sampling_quantile(query, db, ranking, phi=0.5, epsilon=0.05, seed=0)
        assert tight.samples_used > loose.samples_used

    @pytest.mark.parametrize(
        "phi,epsilon,delta",
        [(-0.1, 0.1, 0.1), (True, 0.1, 0.1), (0.5, 0.0, 0.1), (0.5, 1.5, 0.1), (0.5, 0.1, 0.0)],
    )
    def test_parameter_validation(self, binary_join, phi, epsilon, delta):
        query, db = binary_join
        with pytest.raises(ValueError):
            sampling_quantile(
                query, db, SumRanking(["x1"]), phi=phi, epsilon=epsilon, delta=delta
            )
