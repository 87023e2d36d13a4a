"""Tier-1 smoke test of the end-to-end benchmark (``run.py --smoke``).

Checks the contract between ``BENCHMARK.json`` and what the benchmark emits:
every declared workload runs, both passes report exactly the declared metric
names with their declared units, every answer matched the oracle, and the
single-run mode ends with the one-line JSON result.  No timing is asserted.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done


def _check_metrics(metrics: dict, section: str) -> None:
    assert list(metrics) == [metric["name"] for metric in DECLARED[section]]
    for metric in DECLARED[section]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        emitted = metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if section == "end_to_end":
            assert emitted["value"] > 0, metric["name"]


def test_smoke_emits_exactly_the_declared_metrics():
    _run()
    record = json.loads((HERE / "out" / "result.json").read_text())
    assert list(record["workloads"]) == [w["name"] for w in DECLARED["workloads"]]
    for name, entry in record["workloads"].items():
        for key, section in (("untraced", "end_to_end"), ("traced", "per_layer")):
            result = entry[key]
            assert result["attempted"] >= 1 and result["failed"] == 0, (name, key, result["failures"])
            _check_metrics(result["metrics"], section)
        if name != "service_warm":
            assert entry["traced"]["detail"]["counts_repeat"], entry["traced"]["detail"]
    assert record["meta"]["pythonhashseed"] == "0"


def test_single_run_ends_with_the_result_line():
    done = _run("--workload", "path_sum_sharded", "--seed", "7", "--trace", "0")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    _check_metrics(line["metrics"], "end_to_end")
