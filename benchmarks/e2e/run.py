#!/usr/bin/env python3
"""End-to-end phi-batch benchmark with a per-layer breakdown.

    python3 benchmarks/e2e/run.py                      # all workloads, both passes
    python3 benchmarks/e2e/run.py --workload NAME      # one workload, both passes
    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py --smoke | --repeat-check [A B] | --regenerate-expected

``BENCHMARK.json`` (repo root) is the single list of metric names, units and
regression bounds; this script refuses to report a name it does not declare.
Each (workload, pass) runs in its own subprocess (``child.py``).  With
``--workload`` and ``--trace`` given the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; every run also writes
``benchmarks/e2e/out/result.json``.  Exit status is non-zero when any answer
disagreed with the oracle.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

from oracle import expected_for
from workloads import PHI_ORDER, SMOKE_SIZES, SPECS, WorkloadSpec, generate_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
DEFAULT_SEED = 1823
CHILD_TIMEOUT = 170.0

#: How a pass is paced.  ``seconds`` is the measuring window; the counts are
#: floors that hold even when one repetition outlasts the window.
FULL = {
    "batch": {"min_reps": 3, "plain_reps": 2, "warm_slice_seconds": 0.25},
    "service": {
        "min_probes": 2, "probe_share": 0.3, "warm_batch_seconds": 2.0,
        "slice_seconds": 0.5,
    },
}
SMOKE = {
    "batch": {"min_reps": 2, "plain_reps": 1, "warm_slice_seconds": 0.05},
    "service": {
        "min_probes": 1, "probe_share": 0.0, "warm_batch_seconds": 0.5,
        "slice_seconds": 0.25,
    },
}
SMOKE_SECONDS = 0.5


def declared() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_answers(spec: WorkloadSpec, seed: int) -> dict[str, Any]:
    """The committed oracle answers when they match, else computed now."""
    committed = HERE / "expected" / f"{spec.name}-{seed}.json"
    if committed.exists():
        stored = json.loads(committed.read_text())
        if stored["sizes"] == spec.sizes():
            return stored["rankings"]
    return expected_for(spec.query, generate_rows(spec, seed), spec.rankings, PHI_ORDER)


def run_pass(
    spec: WorkloadSpec, seed: int, seconds: float, trace: int, smoke: bool,
    expected: dict[str, Any],
) -> dict[str, Any]:
    """Run one (workload, pass) in a child process and return its result."""
    OUT.mkdir(exist_ok=True)
    job = {
        "workload": spec.name,
        "sizes": spec.sizes(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "out_dir": str(OUT),
        "expected": expected,
        **(SMOKE if smoke else FULL)["service" if spec.kind == "service" else "batch"],
    }
    job_file = OUT / f"job_{spec.name}_{trace}_{os.getpid()}.json"
    job_file.write_text(json.dumps(job))
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), inherited])),
    }
    env.pop("REPRO_PARALLEL_MODE", None)  # sharding means real worker processes
    try:
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_file)],
            env=env, check=True, timeout=CHILD_TIMEOUT,
        )
        return json.loads(job_file.read_text())
    finally:
        job_file.unlink(missing_ok=True)


def named_metrics(result: dict[str, Any], trace: int, spec_json: dict[str, Any]) -> dict[str, Any]:
    """``{name: {"value", "unit"}}`` for exactly the metrics declared for the
    pass.  A per-layer metric the workload has no code path for reads 0."""
    wanted = spec_json["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    unknown = set(measured) - {metric["name"] for metric in wanted}
    missing = set() if trace else {metric["name"] for metric in wanted} - set(measured)
    if unknown or missing:
        raise SystemExit(f"metric names out of step with BENCHMARK.json: "
                         f"undeclared {sorted(unknown)}, missing {sorted(missing)}")
    return {
        metric["name"]: {"value": measured.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in wanted
    }


def git_sha() -> str | None:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_set(
    names: list[str], passes: list[int], seed: int, seconds: float, smoke: bool,
    result_file: Path,
) -> dict[str, Any]:
    """Run the chosen workloads and passes, print every metric, write JSON."""
    spec_json = declared()
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    if load_start > nproc / 2:
        print(f"warning: 1-min load average {load_start:.2f} > nproc/2; "
              "timings will be noisy", file=sys.stderr)
    record: dict[str, Any] = {"workloads": {}}
    process: dict[str, Any] = {}
    for name in names:
        spec = SPECS[name]
        if smoke:
            n, domain = SMOKE_SIZES[spec.shape]
            spec = replace(spec, n=n, domain=domain)
        entry: dict[str, Any] = {"why": spec.why, "sizes": spec.sizes()}
        expected = expected_answers(spec, seed)
        for trace in passes:
            result = run_pass(spec, seed, seconds, trace, smoke, expected)
            process = result.pop("process")
            result["metrics"] = named_metrics(result, trace, spec_json)
            entry["traced" if trace else "untraced"] = result
            print(f"\n{name} [{'traced' if trace else 'untraced'} pass] "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:<32} {value['value']:>16.6g} {value['unit']}")
            for key, value in result["detail"].items():
                if key != "samples":  # every repetition's raw value: JSON only
                    print(f"  ({key}: {value})")
            for failure in result["failures"]:
                print(f"  FAILED: {failure}")
        record["workloads"][name] = entry
    record["meta"] = {
        "git_sha": git_sha(),
        "nproc": nproc,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
        "unix_time": time.time(),
        **process,
    }
    result_file.parent.mkdir(exist_ok=True)
    result_file.write_text(json.dumps(record, indent=1))
    print(f"\nwrote {result_file}")
    return record


def failures_in(record: dict[str, Any]) -> int:
    return sum(
        entry[key]["failed"]
        for entry in record["workloads"].values()
        for key in ("untraced", "traced")
        if key in entry
    )


def repeat_check(first: dict[str, Any], second: dict[str, Any]) -> int:
    """Two runs of the same code must agree within each metric's bound."""
    bounds = {metric["name"]: metric["bound"] for metric in declared()["end_to_end"]}
    exceeded = 0
    print(f"\n{'workload':<18}{'metric':<20}{'first':>12}{'second':>12}{'diff':>9}{'bound':>7}")
    for name, entry in first["workloads"].items():
        for metric, bound in bounds.items():
            a = entry["untraced"]["metrics"][metric]["value"]
            b = second["workloads"][name]["untraced"]["metrics"][metric]["value"]
            diff = abs(b - a) / a
            flag = "  EXCEEDS" if diff > bound else ""
            exceeded += diff > bound
            print(f"{name:<18}{metric:<20}{a:>12.5g}{b:>12.5g}{diff:>9.3f}{bound:>7.2f}{flag}")
    return exceeded


def regenerate_expected(seed: int) -> None:
    (HERE / "expected").mkdir(exist_ok=True)
    for spec in SPECS.values():
        rankings = expected_for(spec.query, generate_rows(spec, seed), spec.rankings, PHI_ORDER)
        target = HERE / "expected" / f"{spec.name}-{seed}.json"
        target.write_text(json.dumps(
            {"workload": spec.name, "seed": seed, "sizes": spec.sizes(), "rankings": rankings},
            indent=1,
        ) + "\n")
        print(f"wrote {target}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring window per pass "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end pass only, 1 = traced pass only; default both")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, sub-second windows")
    parser.add_argument("--repeat-check", nargs="*", metavar="RESULT_JSON",
                        help="compare two untraced sets (run now, or two result files)")
    parser.add_argument("--regenerate-expected", action="store_true",
                        help="rewrite expected/<workload>-<seed>.json from the oracle")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} does not hold src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    if args.regenerate_expected:
        regenerate_expected(args.seed)
        return 0
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else declared()["run_seconds"])
    names = [args.workload] if args.workload else list(SPECS)

    if args.repeat_check is not None:
        if len(args.repeat_check) == 2:
            first, second = (json.loads(Path(p).read_text()) for p in args.repeat_check)
        elif not args.repeat_check:
            first = run_set(names, [0], args.seed, seconds, args.smoke, OUT / "result_a.json")
            second = run_set(names, [0], args.seed, seconds, args.smoke, OUT / "result_b.json")
        else:
            parser.error("--repeat-check takes no files or exactly two")
        failed = failures_in(first) + failures_in(second)
        return 1 if repeat_check(first, second) or failed else 0

    passes = [0, 1] if args.trace is None else [args.trace]
    record = run_set(names, passes, args.seed, seconds, args.smoke, OUT / "result.json")
    failed = failures_in(record)
    if args.workload and args.trace is not None:
        result = record["workloads"][args.workload]["traced" if args.trace else "untraced"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
