"""Scaled-down smoke tests of every benchmark experiment.

Each experiment is executed with tiny parameters so the whole file stays
fast; the assertions check the *shape* of the output (the claims the full
benchmark reproduces), not absolute timings.
"""

from repro.bench import ablations, experiments


class TestExactScalingExperiments:
    def test_e1_shape(self):
        result = experiments.run_e1(sizes=(60, 120), seed=1)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["strategy"] == "exact-pivot"
            assert row["weight"] == row["baseline_weight"]
        assert result.notes

    def test_e1b_shape(self):
        result = experiments.run_e1_min(sizes=(50,), seed=1)
        assert result.rows[0]["weight"] == result.rows[0]["baseline_weight"]

    def test_e2_shape(self):
        result = experiments.run_e2(sizes=(60,), seed=2)
        row = result.rows[0]
        assert row["strategy"] == "exact-pivot"
        assert row["weight"] == row["baseline_weight"]

    def test_e3_shape(self):
        result = experiments.run_e3(sizes=(60,), seed=3)
        row = result.rows[0]
        assert row["weight"] == row["baseline_weight"]

    def test_e4_shape(self):
        result = experiments.run_e4(sizes=(80,), seed=4)
        row = result.rows[0]
        assert row["weight"] == row["baseline_weight"]

    def test_e9_shape(self):
        result = experiments.run_e9(sizes=(120,), seed=5)
        row = result.rows[0]
        assert row["strategy"] == "exact-pivot"
        assert row["weight"] == row["baseline_weight"]

    def test_e10_shape(self):
        result = experiments.run_e10(fanouts=(2, 10), n=150, seed=6)
        assert [row["fanout"] for row in result.rows] == [2, 10]
        assert result.rows[1]["blowup"] > result.rows[0]["blowup"]


class TestApproximationExperiments:
    def test_e5_errors_within_epsilon(self):
        result = experiments.run_e5(sizes=(50,), epsilon=0.3, seed=7)
        row = result.rows[0]
        assert row["approx_rank_error"] <= 0.3
        assert row["sampling_rank_error"] <= 0.3

    def test_e6_within_epsilon(self):
        result = experiments.run_e6(epsilons=(0.4, 0.2), n=60, seed=8)
        assert all(row["within_epsilon"] for row in result.rows)

    def test_e7_deterministic_errors_bounded(self):
        result = experiments.run_e7(epsilons=(0.3,), n=50, phis=(0.5,), seed=9)
        for row in result.rows:
            assert row["deterministic_error"] <= row["epsilon"]


class TestMicroExperiments:
    def test_e8_pivot_balance(self):
        result = experiments.run_e8(sizes=(60,), seed=10)
        for row in result.rows:
            assert row["observed_below_fraction"] >= row["guaranteed_c"]
            assert row["observed_above_fraction"] >= row["guaranteed_c"]

    def test_e11_sketch(self):
        result = ablations.run_e11(epsilons=(0.5, 0.1), multiset_size=800, seed=11)
        for row in result.rows:
            assert row["within_epsilon"]
            assert row["buckets"] <= row["log_bound"]

    def test_a1_budgets(self):
        result = ablations.run_a1(n=40, epsilon=0.4, seed=12)
        budgets = {row["budget"] for row in result.rows}
        assert budgets == {"practical", "paper"}
        for row in result.rows:
            assert row["within_epsilon"]

    def test_a2_variants_agree(self):
        result = ablations.run_a2(n=120, seed=13)
        answers = {row["answers"] for row in result.rows}
        assert len(answers) == 1  # both variants represent the same answer set

    def test_a3_phi_sweep(self):
        result = ablations.run_a3(phis=(0.1, 0.9), n=100, seed=14)
        assert len(result.rows) == 2
        assert all(row["iterations"] for row in result.rows)  # Algorithm 1 ran

    def test_a4_c_decreases_with_width(self):
        result = ablations.run_a4(arms=(2, 3), n=80, seed=15)
        assert result.rows[0]["guaranteed_c"] > result.rows[1]["guaranteed_c"]
