"""Registry mapping experiment identifiers to runner functions."""

from __future__ import annotations

from collections.abc import Callable

from repro.bench import ablations, experiments
from repro.bench.harness import ExperimentResult

#: Experiment id -> (runner, short description).
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    "E1": (experiments.run_e1, "MAX quantile scaling on a 3-path query"),
    "E1b": (experiments.run_e1_min, "MIN quantile scaling on a 4-arm star query"),
    "E2": (experiments.run_e2, "LEX quantile scaling on a 3-path query"),
    "E3": (experiments.run_e3, "partial SUM (tractable side of Theorem 5.6)"),
    "E4": (experiments.run_e4, "full SUM on a binary join"),
    "E5": (experiments.run_e5, "intractable full SUM: materialize vs approximations"),
    "E6": (experiments.run_e6, "deterministic approximation: epsilon sweep"),
    "E7": (experiments.run_e7, "observed rank error of the approximations"),
    "E8": (experiments.run_e8, "pivot quality: guaranteed c vs observed balance"),
    "E9": (experiments.run_e9, "social-network example from the introduction"),
    "E10": (experiments.run_e10, "crossover vs answer blow-up"),
    "E11": (ablations.run_e11, "epsilon-sketch compression micro-benchmark"),
    "A1": (ablations.run_a1, "ablation: sketch-epsilon budget (practical vs paper)"),
    "A2": (ablations.run_a2, "ablation: interval trim vs composed trims"),
    "A3": (ablations.run_a3, "ablation: sensitivity to phi"),
    "A4": (ablations.run_a4, "ablation: pivot quality vs join-tree width"),
}


def get_experiment(identifier: str) -> Callable[..., ExperimentResult]:
    """Return the runner for one experiment id (case-insensitive)."""
    key = identifier.upper() if identifier.lower() != "e1b" else "E1b"
    for candidate in (identifier, key, identifier.capitalize()):
        if candidate in EXPERIMENTS:
            return EXPERIMENTS[candidate][0]
    raise KeyError(
        f"unknown experiment {identifier!r}; known ids: {', '.join(EXPERIMENTS)}"
    )


def run_experiment(identifier: str, **kwargs: object) -> ExperimentResult:
    """Run one experiment by id with optional parameter overrides."""
    return get_experiment(identifier)(**kwargs)
