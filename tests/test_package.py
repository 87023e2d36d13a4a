"""Package-level tests: public API surface, version, and example scripts."""

import importlib
import runpy
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert hasattr(repro, name), f"missing export {name}"

    def test_core_workflow_through_top_level_names(self):
        db = repro.Database(
            [
                repro.Relation("R", ("x", "y"), [(i, i % 3) for i in range(12)]),
                repro.Relation("S", ("y", "z"), [(i % 3, i) for i in range(12)]),
            ]
        )
        query = repro.JoinQuery([repro.Atom("R", ("x", "y")), repro.Atom("S", ("y", "z"))])
        result = repro.Engine(db).quantile(query, repro.SumRanking(["x", "z"]), 0.5)
        assert result.exact

    def test_exceptions_form_a_hierarchy(self):
        for name in (
            "SchemaError",
            "QueryError",
            "CyclicQueryError",
            "EmptyResultError",
            "RankingError",
            "TrimmingError",
            "IntractableQueryError",
            "SolverError",
        ):
            assert issubclass(getattr(repro, name), repro.ReproError)

    def test_submodules_importable(self):
        for module in (
            "repro.data",
            "repro.query",
            "repro.ranking",
            "repro.joins",
            "repro.pivot",
            "repro.trim",
            "repro.approx",
            "repro.core",
            "repro.baselines",
            "repro.workloads",
            "repro.bench",
        ):
            assert importlib.import_module(module)


class TestDocstrings:
    def test_every_public_module_has_a_docstring(self):
        import pkgutil

        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"module {info.name} lacks a docstring"


@pytest.mark.parametrize(
    "script",
    [
        "dichotomy_explorer.py",
        "quickstart.py",
        "approximation_tradeoffs.py",
        "social_network_stats.py",
    ],
)
def test_examples_run(script, capsys, monkeypatch):
    """Every example script runs end to end (about 5 s together)."""
    path = EXAMPLES_DIR / script
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    captured = capsys.readouterr()
    assert "tractable" in captured.out or "exact-pivot" in captured.out
    assert "MISMATCH" not in captured.out
