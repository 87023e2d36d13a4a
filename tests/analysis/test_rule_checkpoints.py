"""RPR001 — checkpoint discipline in hot-path loops."""

from __future__ import annotations

from repro.analysis import rpr001_checkpoints

PATH = "src/repro/joins/example.py"


LOOP = """
    def scan(rows):
        for row in rows:
            pass
    """


def test_applies_only_to_hot_path_packages(run_rule):
    for path in (
        "src/repro/joins/yannakakis.py",
        "src/repro/pivot/pivot_selection.py",
        "src/repro/trim/base.py",
        "src/repro/approx/lossy_sum_trim.py",
        "src/repro/parallel/merger.py",
        "src/repro/baselines/materialize.py",
    ):
        assert len(run_rule(rpr001_checkpoints, path, LOOP)) == 1, path
    assert run_rule(rpr001_checkpoints, "src/repro/service/server.py", LOOP) == []
    assert run_rule(rpr001_checkpoints, "x/joins/test_yannakakis.py", LOOP) == []


def test_loop_without_checkpoint_is_flagged(run_rule):
    findings = run_rule(
        rpr001_checkpoints,
        PATH,
        """
        def scan(rows):
            total = 0
            for row in rows:
                total += 1
            return total
        """,
    )
    assert [(f.rule_id, f.line, f.column) for f in findings] == [("RPR001", 4, 5)]
    assert "for loop in hot-path function 'scan'" in findings[0].message


def test_checkpoint_in_loop_body_covers(run_rule):
    findings = run_rule(
        rpr001_checkpoints,
        PATH,
        """
        from repro.runtime import checkpoint

        def scan(rows):
            for row in rows:
                checkpoint("scan", rows=1)
        """,
    )
    assert findings == []


def test_checkpoint_anywhere_in_function_covers_inner_loops(run_rule):
    findings = run_rule(
        rpr001_checkpoints,
        PATH,
        """
        def scan(groups):
            checkpoint("scan", rows=len(groups))
            for group in groups:
                for row in group:
                    pass
        """,
    )
    assert findings == []


def test_method_style_checkpoint_counts(run_rule):
    findings = run_rule(
        rpr001_checkpoints,
        PATH,
        """
        def scan(ctx, rows):
            for row in rows:
                ctx.checkpoint("scan")
        """,
    )
    assert findings == []


def test_while_loop_flagged_with_while_symbol(run_rule):
    findings = run_rule(
        rpr001_checkpoints,
        PATH,
        """
        def climb(n):
            while n > 1:
                n //= 2
        """,
    )
    assert len(findings) == 1
    assert "while loop in hot-path function 'climb'" in findings[0].message


def test_module_level_loop_flagged(run_rule):
    findings = run_rule(
        rpr001_checkpoints,
        PATH,
        """
        for i in range(3):
            print(i)
        """,
    )
    assert len(findings) == 1
    assert "'<module>'" in findings[0].message


def test_comprehensions_not_flagged(run_rule):
    findings = run_rule(
        rpr001_checkpoints,
        PATH,
        """
        def build(rows):
            return [row for row in rows if row]
        """,
    )
    assert findings == []


def test_inline_waiver_silences(run_rule):
    findings = run_rule(
        rpr001_checkpoints,
        PATH,
        """
        def climb(n):
            # repro-analysis: allow RPR001 -- O(log n) doubling, no row work
            while n > 1:
                n //= 2
        """,
    )
    assert findings == []
