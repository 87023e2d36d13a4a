"""Shared helpers for the invariant-checker tests.

Rule tests all follow the same shape: parse a source snippet under a path
that makes the rule applicable, run exactly one rule, and assert on the
findings.  ``run_rule`` packages that so each test reads as fixture + claim.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import Finding, ParsedModule, Rule, check_module


def _run_rule(rule: Rule, path: str, source: str) -> list[Finding]:
    active, _waived = check_module(ParsedModule(path, textwrap.dedent(source)), [rule])
    return active


@pytest.fixture
def run_rule():
    """Run one rule over a dedented source snippet, waivers applied."""
    return _run_rule
