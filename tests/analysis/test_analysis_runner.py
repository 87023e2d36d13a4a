"""The ``python -m repro.analysis`` runner: output lines and exit codes."""

from __future__ import annotations

import pytest

from repro.analysis import main

CLEAN = """\
from repro.runtime import checkpoint


def scan(rows):
    for row in rows:
        checkpoint("scan", rows=1)
"""

VIOLATION = """\
def scan(rows):
    total = 0
    for row in rows:
        total += 1
    return total
"""


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A miniature repo tree, entered the way the tool is run: from its root."""
    joins = tmp_path / "src" / "repro" / "joins"
    joins.mkdir(parents=True)
    (joins / "clean.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, repo, capsys):
        assert main(["src/repro"]) == 0
        assert capsys.readouterr().out == "1 files checked: 0 findings, 0 waived\n"

    def test_seeded_violation_exits_one(self, repo, capsys):
        (repo / "src" / "repro" / "joins" / "bad.py").write_text(VIOLATION)
        assert main(["src/repro"]) == 1
        first, summary = capsys.readouterr().out.splitlines()
        assert first.startswith("src/repro/joins/bad.py:3:5: RPR001 for loop")
        assert summary == "2 files checked: 1 findings, 0 waived"

    def test_missing_path_exits_two(self, repo, capsys):
        assert main(["no/such/dir"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_no_arguments_checks_the_library(self, repo, capsys):
        assert main([]) == 0
        assert capsys.readouterr().out == "1 files checked: 0 findings, 0 waived\n"

    def test_syntax_error_exits_one(self, repo, capsys):
        (repo / "src" / "repro" / "joins" / "broken.py").write_text("def f(:\n")
        assert main(["src/repro"]) == 1
        assert "RPR000 syntax error" in capsys.readouterr().out
