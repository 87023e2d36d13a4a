"""Benchmark harness utilities and a smoke test of the experiment registry."""

import math

import pytest

from repro.bench.harness import (
    ExperimentResult,
    growth_exponent,
    observed_rank_error,
    rank_of_weight,
    time_call,
)
import json

from repro.bench.__main__ import QUICK_OVERRIDES, main
from repro.bench.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.bench.reporting import (
    format_table,
    format_value,
    result_to_dict,
    write_json_report,
)


class TestTimeCall:
    def test_returns_result_and_positive_time(self):
        result, elapsed = time_call(lambda: sum(range(1000)))
        assert result == 499500
        assert elapsed >= 0


class TestGrowthExponent:
    def test_linear(self):
        sizes = [100, 200, 400, 800]
        times = [0.01 * n for n in sizes]
        assert growth_exponent(sizes, times) == pytest.approx(1.0, abs=0.01)

    def test_quadratic(self):
        sizes = [100, 200, 400, 800]
        times = [1e-6 * n * n for n in sizes]
        assert growth_exponent(sizes, times) == pytest.approx(2.0, abs=0.01)

    def test_degenerate(self):
        assert math.isnan(growth_exponent([100], [0.1]))


class TestRankError:
    def test_exact_hit(self):
        weights = [1, 2, 2, 3, 4]
        assert observed_rank_error(weights, 2, 1) == 0.0
        assert observed_rank_error(weights, 2, 2) == 0.0

    def test_miss_distance(self):
        weights = [1, 2, 3, 4, 5]
        assert observed_rank_error(weights, 5, 0) == pytest.approx(4 / 5)
        assert observed_rank_error(weights, 1, 4) == pytest.approx(4 / 5)

    def test_rank_of_weight_tie_range(self):
        assert rank_of_weight([1, 2, 2, 2, 3], 2) == (1, 3)


class TestReporting:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(0.123456) == "0.1235"
        assert format_value("abc") == "abc"

    def test_format_table(self):
        result = ExperimentResult(
            experiment="T0",
            title="demo",
            claim="none",
            columns=["a", "b"],
            rows=[{"a": 1, "b": 2.5}, {"a": 10, "b": None}],
            notes=["a note"],
        )
        text = format_table(result)
        assert "T0" in text and "a note" in text and "demo" in text


class TestJsonReport:
    def make_result(self):
        return ExperimentResult(
            experiment="T1",
            title="demo",
            claim="none",
            columns=["a", "b"],
            rows=[{"a": 1, "b": 2.5}],
            notes=["a note"],
        )

    def test_result_to_dict_roundtrips_table(self):
        payload = result_to_dict(self.make_result())
        assert payload["experiment"] == "T1"
        assert payload["rows"] == [{"a": 1, "b": 2.5}]
        assert payload["notes"] == ["a note"]
        assert "python" in payload["environment"]

    def test_write_json_report_canonical_name(self, tmp_path):
        target = write_json_report(self.make_result(), tmp_path)
        assert target == tmp_path / "BENCH_t1.json"
        payload = json.loads(target.read_text())
        assert payload["columns"] == ["a", "b"]

    def test_write_json_report_explicit_file(self, tmp_path):
        target = write_json_report(self.make_result(), tmp_path / "out.json")
        assert target.name == "out.json"
        assert json.loads(target.read_text())["experiment"] == "T1"


class TestRegistry:
    def test_every_experiment_registered(self):
        expected = {"E1", "E1b", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
                    "E10", "E11", "A1", "A2", "A3", "A4"}
        assert expected == set(EXPERIMENTS)

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("e1") is EXPERIMENTS["E1"][0]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_run_tiny_experiment(self):
        result = run_experiment("E11", multiset_size=500, epsilons=(0.5,))
        assert result.experiment == "E11"
        assert result.rows and result.rows[0]["within_epsilon"]


class TestMain:
    def test_list_prints_exactly_the_registry_ids(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(EXPERIMENTS)

    def test_quick_run_writes_the_json_report(self, tmp_path, capsys):
        assert main(["--quick", "E11", "--json", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_e11.json").read_text())
        assert payload["experiment"] == "E11" and payload["rows"]
        assert "E11" in capsys.readouterr().out

    def test_every_experiment_has_a_quick_configuration(self):
        assert set(QUICK_OVERRIDES) == set(EXPERIMENTS)
