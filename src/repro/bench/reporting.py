"""Rendering of experiment tables: plain text and machine-readable JSON.

The JSON form (``BENCH_<id>.json``, written by :func:`write_json_report`)
lets successive runs of the same experiment be diffed without scraping the
text tables.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any

from repro.bench.harness import ExperimentResult
from repro.kernels import backend_name


def format_value(value: object) -> str:
    """Render a cell value compactly."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render one experiment result as an aligned plain-text table."""
    columns = list(result.columns)
    rows = [[format_value(row.get(column)) for column in columns] for row in result.rows]
    widths = [
        max(len(column), *(len(row[i]) for row in rows)) if rows else len(column)
        for i, column in enumerate(columns)
    ]
    lines = [
        f"== {result.experiment}: {result.title} ==",
        f"claim: {result.claim}",
        "",
        "  ".join(column.ljust(width) for column, width in zip(columns, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def print_result(result: ExperimentResult) -> None:
    """Print one experiment table to stdout."""
    print(format_table(result))
    print()


# ---------------------------------------------------------------------- #
# Machine-readable reports
# ---------------------------------------------------------------------- #
def result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """One experiment result as a JSON-serializable dictionary.

    Carries a ``backend`` key naming the kernel backend the experiment ran
    under.
    """
    return {
        "experiment": result.experiment,
        "title": result.title,
        "claim": result.claim,
        "columns": list(result.columns),
        "rows": [dict(row) for row in result.rows],
        "notes": list(result.notes),
        "backend": backend_name(),
        "environment": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
    }


def json_report_path(result: ExperimentResult, directory: str | Path = ".") -> Path:
    """Canonical report file name for one experiment (``BENCH_<id>.json``)."""
    return Path(directory) / f"BENCH_{result.experiment.lower()}.json"


def write_json_report(
    result: ExperimentResult, path: str | Path | None = None
) -> Path:
    """Write one experiment result as JSON and return the file path.

    ``path`` may be a target ``*.json`` file, a directory (created if
    needed; the canonical ``BENCH_<id>.json`` name is appended), or ``None``
    (canonical name in the current directory).  The dir-vs-file decision is
    by suffix, not filesystem state, so a not-yet-existing directory is
    never mistaken for a file.
    """
    if path is None:
        target = json_report_path(result)
    else:
        path = Path(path)
        if path.suffix.lower() == ".json":
            target = path
            target.parent.mkdir(parents=True, exist_ok=True)
        else:
            path.mkdir(parents=True, exist_ok=True)
            target = json_report_path(result, path)
    target.write_text(json.dumps(result_to_dict(result), indent=2, sort_keys=False))
    return target
