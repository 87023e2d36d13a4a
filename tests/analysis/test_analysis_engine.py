"""The shared machinery: parsing helpers, waivers, finding format, ``run``."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis import (
    Finding,
    ParsedModule,
    dotted_name,
    is_checkpoint_call,
    iter_python_files,
    run,
)

LOOP = "def scan(rows):\n    for row in rows:\n        pass\n"


def parse(source: str, path: str = "src/repro/example.py") -> ParsedModule:
    return ParsedModule(path, textwrap.dedent(source))


def hot_dir(tmp_path):
    """A directory RPR001 applies to, under ``tmp_path`` as the root."""
    joins = tmp_path / "src" / "repro" / "joins"
    joins.mkdir(parents=True)
    return joins


class TestParsedModule:
    def test_enclosing_function_finds_innermost(self):
        module = parse(
            """
            def outer():
                def inner():
                    x = 1
            """
        )
        assign = next(n for n in ast.walk(module.tree) if isinstance(n, ast.Assign))
        function = module.enclosing_function(assign)
        assert function is not None and function.name == "inner"

    def test_ancestors_walk_to_module(self):
        module = parse(
            """
            def f():
                for i in range(3):
                    x = i
            """
        )
        assign = next(n for n in ast.walk(module.tree) if isinstance(n, ast.Assign))
        chain = list(module.ancestors(assign))
        assert isinstance(chain[0], ast.For)
        assert isinstance(chain[-1], ast.Module)


class TestWaivers:
    def test_waiver_on_same_line(self):
        module = parse("x = 1  # repro-analysis: allow RPR001 -- bounded\n")
        assert module.waived("RPR001", 1)

    def test_waiver_on_previous_line(self):
        module = parse(
            "# repro-analysis: allow RPR002 -- publish is single-threaded here\n"
            "x = 1\n"
        )
        assert module.waived("RPR002", 2)

    def test_waiver_requires_reason(self):
        module = parse("x = 1  # repro-analysis: allow RPR001\n")
        assert not module.waived("RPR001", 1)
        module = parse("x = 1  # repro-analysis: allow RPR001 --\n")
        assert not module.waived("RPR001", 1)

    def test_waiver_covers_only_named_rules(self):
        module = parse("x = 1  # repro-analysis: allow RPR001, RPR004 -- both\n")
        assert module.waived("RPR001", 1)
        assert module.waived("RPR004", 1)
        assert not module.waived("RPR002", 1)

    def test_waiver_does_not_leak_to_other_lines(self):
        module = parse(
            "x = 1  # repro-analysis: allow RPR001 -- here only\n"
            "y = 2\n"
            "z = 3\n"
        )
        assert not module.waived("RPR001", 3)


class TestFinding:
    def test_render_is_path_line_col_prefixed(self):
        finding = Finding("a.py", 3, 2, "RPR001", "msg")
        assert finding.render() == "a.py:3:2: RPR001 msg"


class TestHelpers:
    def test_dotted_name(self):
        call = ast.parse("a.b.c()").body[0].value
        assert dotted_name(call.func) == "a.b.c"
        call = ast.parse("f()").body[0].value
        assert dotted_name(call.func) == "f"
        call = ast.parse("x[0]()").body[0].value
        assert dotted_name(call.func) is None

    def test_is_checkpoint_call_matches_name_and_attribute(self):
        assert is_checkpoint_call(ast.parse("checkpoint('x')").body[0].value)
        assert is_checkpoint_call(ast.parse("ctx.checkpoint('x')").body[0].value)
        assert not is_checkpoint_call(ast.parse("other('x')").body[0].value)


class TestAnalyzer:
    def test_run_collects_and_sorts_findings(self, tmp_path):
        joins = hot_dir(tmp_path)
        (joins / "b.py").write_text(LOOP)
        (joins / "a.py").write_text(LOOP + "\n\n" + LOOP.replace("scan", "again"))
        report = run([tmp_path], root=tmp_path)
        assert report.files == ["src/repro/joins/a.py", "src/repro/joins/b.py"]
        assert [(f.path, f.line) for f in report.findings] == [
            ("src/repro/joins/a.py", 2),
            ("src/repro/joins/a.py", 7),
            ("src/repro/joins/b.py", 2),
        ]

    def test_waived_findings_are_split_out(self, tmp_path):
        (hot_dir(tmp_path) / "a.py").write_text(
            LOOP.replace("rows:", "rows:  # repro-analysis: allow RPR001 -- test waiver")
        )
        report = run([tmp_path], root=tmp_path)
        assert report.findings == []
        assert [f.rule_id for f in report.waived] == ["RPR001"]

    def test_syntax_error_becomes_rpr000(self, tmp_path):
        (tmp_path / "bad.py").write_text("def f(:\n")
        report = run([tmp_path], root=tmp_path)
        (finding,) = report.findings
        assert (finding.rule_id, finding.path, finding.line) == ("RPR000", "bad.py", 1)
        assert finding.message.startswith("syntax error")

    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "x.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "y.py").write_text("y = 1\n")
        (tmp_path / "ok.py").write_text("z = 1\n")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["ok.py"]
