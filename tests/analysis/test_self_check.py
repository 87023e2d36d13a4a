"""Self-check: the shipped tree passes its own invariant checker — and the
checker still catches the defects it is kept for.

The first half runs the rules over ``src/repro`` exactly as
``python -m repro.analysis`` does; tier-1 runs it on every supported
Python, which is why there is no separate CI job.  The second half is the
mutation audit that decided which rules stay (CHANGES.md, PR 22), re-run on
every test run: each case seeds one defect into a copy of a real file's
text and expects the one rule that owns it to fire.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_PATHS,
    ParsedModule,
    check_module,
    rpr001_checkpoints,
    rpr002_lock_publish,
    rpr003_async_blocking,
    rpr004_typed_errors,
    run,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def report():
    return run([REPO_ROOT / path for path in DEFAULT_PATHS], root=REPO_ROOT)


def test_no_new_findings(report):
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"invariant violations:\n{rendered}"


def test_checked_tree_is_nontrivial(report):
    # Guard against the self-check silently analyzing an empty tree (e.g.
    # after a path rename): the repo has dozens of applicable files, and the
    # ε-lossy trim (Algorithm 4) is one of the packages RPR001 polices.
    assert len(report.files) >= 50
    assert "src/repro/approx/lossy_sum_trim.py" in report.files


# --------------------------------------------------------------------------- #
# Seeded defects
# --------------------------------------------------------------------------- #
def seeded(rule, path: str, old: str, new: str, occurrence: int = 1):
    """Findings of ``rule`` after replacing one occurrence of ``old`` in ``path``."""
    source = (REPO_ROOT / path).read_text(encoding="utf-8")
    clean, _ = check_module(ParsedModule(path, source), [rule])
    assert clean == [], "the committed file must pass before the defect is seeded"
    pieces = source.split(old)
    assert len(pieces) > occurrence, f"{old!r} x{occurrence} not found in {path}"
    mutated = old.join(pieces[:occurrence]) + new + old.join(pieces[occurrence:])
    findings, _ = check_module(ParsedModule(path, mutated), [rule])
    return findings


#: The checkpoint deletions only RPR001 caught when the audit was run (nine;
#: two went with the MIN/MAX/LEX trims).  ``tests/runtime/test_checkpoint_coverage.py``
#: now pins four of them by *name*; a name cannot tell which of several
#: same-named sites went dark, so for the three ``parallel.*`` duplicates the
#: rule is still the only catcher.
AUDITED_SITES = [
    ("src/repro/joins/direct_access.py", 'checkpoint("direct_access.build"', 1),
    ("src/repro/joins/direct_access.py", 'checkpoint("direct_access.iter"', 1),
    ("src/repro/joins/direct_access.py", 'checkpoint("direct_access.expand"', 1),
    ("src/repro/trim/sum_adjacent_trim.py", 'checkpoint("trim.sum_group"', 1),
    ("src/repro/parallel/merger.py", 'checkpoint("parallel.merge"', 1),
    ("src/repro/parallel/merger.py", 'checkpoint("parallel.merge"', 2),
    ("src/repro/parallel/planner.py", 'checkpoint("parallel.plan"', 3),
]


@pytest.mark.parametrize(("path", "call", "occurrence"), AUDITED_SITES)
def test_deleted_checkpoint_is_flagged(path, call, occurrence):
    # ``checkpoint(`` -> ``str(`` keeps the line valid and drops the call.
    dark = call.replace("checkpoint(", "str(")
    findings = seeded(rpr001_checkpoints, path, call, dark, occurrence)
    assert findings and {f.rule_id for f in findings} == {"RPR001"}


def test_lossy_trim_without_any_checkpoint_is_flagged():
    path = "src/repro/approx/lossy_sum_trim.py"
    source = (REPO_ROOT / path).read_text(encoding="utf-8")
    mutated = source.replace('checkpoint("trim.lossy_', 'str("trim.lossy_')
    findings, _ = check_module(ParsedModule(path, mutated), [rpr001_checkpoints])
    assert {f.message.split("'")[1] for f in findings} == {"_trim_side", "_absorb_child"}


def test_state_table_publish_outside_the_lock_is_flagged():
    (finding,) = seeded(
        rpr002_lock_publish,
        "src/repro/joins/message_passing.py",
        "        with self._lock:\n            return self._states.setdefault(",
        "        if True:\n            return self._states.setdefault(",
    )
    assert "StateTable._states" in finding.message


def test_sleep_in_the_query_handler_is_flagged():
    (finding,) = seeded(
        rpr003_async_blocking,
        "src/repro/service/server.py",
        "        request_id = next(self._request_ids)\n",
        "        request_id = next(self._request_ids)\n        time.sleep(0.001)\n",
    )
    assert "time.sleep() inside async def '_handle_query'" in finding.message


def test_untyped_raise_in_library_code_is_flagged():
    (finding,) = seeded(
        rpr004_typed_errors,
        "src/repro/data/io.py",
        "        raise SchemaError(f\"{directory} is not a directory\")",
        "        raise ValueError(f\"{directory} is not a directory\")",
    )
    assert finding.message.startswith("raise ValueError")
