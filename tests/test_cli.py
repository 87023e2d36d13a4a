"""Command-line interface tests (quantile queries over CSV directories)."""

import json
import random

import pytest

from repro.cli import main
from repro.data.database import Database
from repro.data.io import save_database_csv
from repro.data.relation import Relation


@pytest.fixture
def csv_database(tmp_path):
    rng = random.Random(1)
    db = Database(
        [
            Relation("R", ("x1", "x2"), [(rng.randrange(40), rng.randrange(5)) for _ in range(40)]),
            Relation("S", ("x2", "x3"), [(rng.randrange(5), rng.randrange(40)) for _ in range(40)]),
        ]
    )
    directory = tmp_path / "db"
    save_database_csv(db, directory)
    return directory


class TestCli:
    def base_args(self, csv_database):
        return [
            "--data", str(csv_database),
            "--query", "R(x1, x2), S(x2, x3)",
        ]

    def test_median_sum(self, csv_database, capsys):
        code = main(self.base_args(csv_database) + [
            "--ranking", "sum(x1, x3)", "--phi", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "exact" in out and "weight" in out

    def test_json_output(self, csv_database, capsys):
        code = main(self.base_args(csv_database) + [
            "--ranking", "max(x1, x3)", "--phi", "0.25", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "exact-pivot"
        assert payload["exact"] is True
        assert set(payload["assignment"]) == {"x1", "x2", "x3"}

    def test_count_only(self, csv_database, capsys):
        code = main(self.base_args(csv_database) + [
            "--count-only", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answers"] > 0

    def test_selection_by_index(self, csv_database, capsys):
        code = main(self.base_args(csv_database) + [
            "--ranking", "lex(x3, x1)", "--index", "0", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_index"] == 0

    def test_phi_and_index_both_rejected(self, csv_database):
        with pytest.raises(SystemExit):
            main(self.base_args(csv_database) + [
                "--ranking", "sum(x1)", "--phi", "0.5", "--index", "3",
            ])

    def test_neither_phi_nor_index_rejected(self, csv_database):
        with pytest.raises(SystemExit):
            main(self.base_args(csv_database) + ["--ranking", "sum(x1)"])

    def test_library_errors_are_reported(self, csv_database, capsys):
        code = main(self.base_args(csv_database) + [
            "--ranking", "sum(does_not_exist)", "--phi", "0.5",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_data_directory(self, tmp_path, capsys):
        code = main([
            "--data", str(tmp_path / "missing"),
            "--query", "R(x, y)",
            "--ranking", "sum(x)",
            "--phi", "0.5",
        ])
        assert code == 2


class TestCliNewSurface:
    def test_query_spec(self, csv_database, capsys):
        code = main([
            "--data", str(csv_database),
            "--query", "R(x1, x2), S(x2, x3)",
            "--ranking", "sum(x1, x3)",
            "--phi", "0.5", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phi"] == 0.5
        assert set(payload["assignment"]) == {"x1", "x2", "x3"}

    def test_comma_separated_phis_emit_json_list(self, csv_database, capsys):
        code = main([
            "--data", str(csv_database),
            "--query", "R(x1, x2), S(x2, x3)",
            "--ranking", "sum(x1, x3)",
            "--phi", "0.1,0.5,0.9", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 3
        assert [record["phi"] for record in payload] == [0.1, 0.5, 0.9]
        weights = [record["weight"] for record in payload]
        assert weights == sorted(weights)

    def test_repeated_phi_flags(self, csv_database, capsys):
        code = main([
            "--data", str(csv_database),
            "--query", "R(x1, x2), S(x2, x3)",
            "--ranking", "max(x1, x3)",
            "--phi", "0.25", "--phi", "0.75", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [record["phi"] for record in payload] == [0.25, 0.75]

    def test_multi_phi_text_output(self, csv_database, capsys):
        code = main([
            "--data", str(csv_database),
            "--query", "R(x1, x2), S(x2, x3)",
            "--ranking", "sum(x1, x3)",
            "--phi", "0.25,0.75",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("phi             :") == 2

    def test_single_phi_stays_a_single_record(self, csv_database, capsys):
        code = main([
            "--data", str(csv_database),
            "--query", "R(x1, x2), S(x2, x3)",
            "--ranking", "sum(x1, x3)",
            "--phi", "0.5", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict)

    def test_invalid_phi_list_rejected(self, csv_database):
        for bad in ("0.2,,0.4", "0.2,oops", "1.5"):
            with pytest.raises(SystemExit):
                main([
                    "--data", str(csv_database),
                    "--query", "R(x1, x2), S(x2, x3)",
                    "--ranking", "sum(x1, x3)",
                    "--phi", bad,
                ])

    def test_multi_phi_with_index_rejected(self, csv_database):
        with pytest.raises(SystemExit):
            main([
                "--data", str(csv_database),
                "--query", "R(x1, x2), S(x2, x3)",
                "--ranking", "sum(x1, x3)",
                "--phi", "0.25,0.75", "--index", "3",
            ])

    def test_count_only_needs_no_ranking(self, csv_database, capsys):
        code = main([
            "--data", str(csv_database),
            "--query", "R(x1, x2), S(x2, x3)",
            "--count-only", "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["answers"] > 0

    def test_bad_query_spec_rejected(self, csv_database):
        with pytest.raises(SystemExit):
            main([
                "--data", str(csv_database),
                "--query", "R(x1, x2) garbage",
                "--ranking", "sum(x1)", "--phi", "0.5",
            ])

    def test_ranking_required_unless_count_only(self, csv_database):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "--data", str(csv_database),
                "--query", "R(x1, x2), S(x2, x3)", "--phi", "0.5",
            ])
        assert exit_info.value.code == 2

    def test_bad_ranking_spec_rejected(self, csv_database):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "--data", str(csv_database),
                "--query", "R(x1, x2), S(x2, x3)",
                "--ranking", "median(x1)", "--phi", "0.5",
            ])
        assert exit_info.value.code == 2

    def test_a_weighted_cell_that_is_not_a_number_is_an_error(self, tmp_path, capsys):
        directory = tmp_path / "db"
        directory.mkdir()
        (directory / "R.csv").write_text("x1,x2\n1,0\nfoo,1\n2,1\n")
        (directory / "S.csv").write_text("x2,x3\n0,5\n1,6\n")
        code = main([
            "--data", str(directory),
            "--query", "R(x1, x2), S(x2, x3)",
            "--ranking", "sum(x1, x3)", "--phi", "0.5",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: x1 = 'foo'")

    @pytest.mark.parametrize("flag, value", [("--timeout", "-1"), ("--max-rows", "0")])
    def test_serve_refuses_a_bad_default_guardrail_at_startup(
        self, csv_database, capsys, flag, value
    ):
        """Service defaults are checked once, before binding — not answered
        as a 400 by every later request."""
        assert main(["serve", "--data", str(csv_database), "--port", "0", flag, value]) == 2
        assert "must be positive" in capsys.readouterr().err
