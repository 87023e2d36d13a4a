"""RPR004 — typed-error taxonomy in library code."""

from __future__ import annotations

from repro.analysis import rpr004_typed_errors

PATH = "src/repro/data/columns.py"


def test_bare_value_error_flagged(run_rule):
    findings = run_rule(
        rpr004_typed_errors,
        PATH,
        """
        def check(n):
            if n < 0:
                raise ValueError("negative")
        """,
    )
    assert [(f.rule_id, f.line) for f in findings] == [("RPR004", 4)]
    assert findings[0].message.startswith("raise ValueError in library code")


def test_typed_error_passes(run_rule):
    findings = run_rule(
        rpr004_typed_errors,
        PATH,
        """
        from repro.exceptions import ValidationError

        def check(n):
            if n < 0:
                raise ValidationError("negative")
        """,
    )
    assert findings == []


def test_reraise_not_flagged(run_rule):
    findings = run_rule(
        rpr004_typed_errors,
        PATH,
        """
        def passthrough():
            try:
                work()
            except Exception:
                raise
        """,
    )
    assert findings == []


def test_abstract_not_implemented_allowed(run_rule):
    findings = run_rule(
        rpr004_typed_errors,
        PATH,
        """
        class Base:
            def check(self, module):
                '''Docstring.'''
                raise NotImplementedError
        """,
    )
    assert findings == []


def test_not_implemented_in_real_body_flagged(run_rule):
    findings = run_rule(
        rpr004_typed_errors,
        PATH,
        """
        def partial(mode):
            if mode == "fast":
                return 1
            raise NotImplementedError("slow path missing")
        """,
    )
    assert [f.message.split(" in library")[0] for f in findings] == [
        "raise NotImplementedError"
    ]


def test_exceptions_module_is_exempt(run_rule):
    source = "raise ValueError('bridge')\n"
    assert run_rule(rpr004_typed_errors, "src/repro/exceptions.py", source) == []
    assert len(run_rule(rpr004_typed_errors, "src/repro/engine.py", source)) == 1


def test_runtime_and_type_errors_flagged(run_rule):
    findings = run_rule(
        rpr004_typed_errors,
        PATH,
        """
        def f(x):
            if x is None:
                raise TypeError("no")
            raise RuntimeError("boom")
        """,
    )
    assert [f.message.split(" in library")[0] for f in findings] == [
        "raise TypeError",
        "raise RuntimeError",
    ]
