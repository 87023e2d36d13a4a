"""Command-line entry point: ``python -m repro.bench [EXP_ID ...]``.

Runs the requested experiments (default: all of them) and prints their tables.
Use ``--quick`` for scaled-down configurations suitable for a smoke run.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.bench.reporting import print_result, write_json_report

#: Scaled-down parameter overrides used by --quick.
QUICK_OVERRIDES: dict[str, dict] = {
    "E1": {"sizes": (100, 200, 400)},
    "E1b": {"sizes": (100, 200)},
    "E2": {"sizes": (100, 200, 400)},
    "E3": {"sizes": (100, 200)},
    "E4": {"sizes": (200, 400)},
    "E5": {"sizes": (80, 160)},
    "E6": {"epsilons": (0.4, 0.2), "n": 150},
    "E7": {"epsilons": (0.3,), "n": 120, "phis": (0.5,)},
    "E8": {"sizes": (100, 200)},
    "E9": {"sizes": (300, 600)},
    "E10": {"fanouts": (2, 10, 20), "n": 400},
    "E11": {"multiset_size": 5000},
    "A1": {"n": 100},
    "A3": {"phis": (0.1, 0.5, 0.9), "n": 300},
    "A4": {"arms": (2, 3), "n": 200},
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the experiments that reproduce the paper's claims and print their tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (default: all); --list prints the index",
    )
    parser.add_argument(
        "--quick", action="store_true", help="run scaled-down configurations"
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="additionally write each result as machine-readable "
        "BENCH_<id>.json into DIR",
    )
    args = parser.parse_args(argv)
    if args.json is not None:
        from pathlib import Path

        Path(args.json).mkdir(parents=True, exist_ok=True)

    if args.list:
        for identifier, (_, description) in EXPERIMENTS.items():
            print(f"{identifier:5s} {description}")
        return 0

    identifiers = args.experiments or list(EXPERIMENTS)
    for identifier in identifiers:
        overrides = QUICK_OVERRIDES.get(identifier.upper(), {}) if args.quick else {}
        if identifier.lower() == "e1b" and args.quick:
            overrides = QUICK_OVERRIDES["E1b"]
        result = run_experiment(identifier, **overrides)
        print_result(result)
        if args.json is not None:
            target = write_json_report(result, args.json)
            print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
