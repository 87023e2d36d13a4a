"""Experiment definitions E1–E10: scaling and who-wins comparisons.

Every experiment validates one claim of the paper (``python -m repro.bench
--list`` prints the index).  The functions are deterministic given their
seed, take size parameters so that ``--quick`` and the smoke tests can run
scaled-down configurations, and return
:class:`~repro.bench.harness.ExperimentResult` tables.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

from repro.baselines.materialize import answer_weights, materialize_quantile
from repro.bench.harness import (
    ExperimentResult,
    growth_exponent,
    observed_rank_error,
    time_call,
)
from repro.engine import PreparedQuery
from repro.joins.counting import count_answers
from repro.pivot.pivot_selection import select_pivot
from repro.query.rewrite import ensure_canonical
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.workloads.path import path_workload
from repro.workloads.social import social_network_workload
from repro.workloads.star import star_workload

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.workloads.generators import Workload

#: Baselines above this many answers are skipped (the point of the paper is
#: that materialization is infeasible; we do not need to prove it by waiting).
BASELINE_ANSWER_LIMIT = 3_000_000


def _compare_row(
    workload: Workload,
    phi: float,
    solver_kwargs: dict[str, Any] | None = None,
    baseline: bool = True,
) -> dict[str, Any]:
    """Run the solver and (optionally) the materialize baseline on a workload.

    The whole suite runs at ``termination_factor=1``: the paper's claims are
    about Algorithm 1's own ``|D|`` cut, not the engine's default.
    """
    solver = PreparedQuery(
        workload.query, workload.db, workload.ranking,
        termination_factor=1, **(solver_kwargs or {}),
    )
    canonical = ensure_canonical(workload.query, workload.db)
    answers = count_answers(*canonical)
    result, solver_time = time_call(lambda: solver.quantile(phi))
    row = {
        "n": workload.database_size,
        "answers": answers,
        "strategy": result.strategy,
        "pivot_iterations": result.iterations,
        "solver_seconds": round(solver_time, 4),
        "weight": result.weight,
    }
    if baseline and answers <= BASELINE_ANSWER_LIMIT:
        base, base_time = time_call(
            lambda: materialize_quantile(workload.query, workload.db, workload.ranking, phi=phi)
        )
        row["baseline_seconds"] = round(base_time, 4)
        row["baseline_weight"] = base.weight
        row["speedup"] = round(base_time / solver_time, 2) if solver_time > 0 else float("inf")
    else:
        row["baseline_seconds"] = None
        row["baseline_weight"] = None
        row["speedup"] = None
    return row


def _scaling_experiment(
    experiment: str,
    title: str,
    claim: str,
    workloads: Iterable[Workload],
    phi: float,
    solver_kwargs: dict[str, Any] | None = None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment=experiment,
        title=title,
        claim=claim,
        columns=[
            "n",
            "answers",
            "strategy",
            "pivot_iterations",
            "solver_seconds",
            "baseline_seconds",
            "speedup",
            "weight",
            "baseline_weight",
        ],
    )
    for workload in workloads:
        result.rows.append(_compare_row(workload, phi, solver_kwargs=solver_kwargs))
    sizes = [row["n"] for row in result.rows]
    times = [row["solver_seconds"] for row in result.rows]
    result.notes.append(
        f"solver log-log growth exponent: {growth_exponent(sizes, times):.2f} "
        "(quasilinear expectation: close to 1)"
    )
    base_pairs = [
        (row["n"], row["baseline_seconds"])
        for row in result.rows
        if row["baseline_seconds"]
    ]
    if len(base_pairs) >= 2:
        result.notes.append(
            "baseline log-log growth exponent: "
            f"{growth_exponent([p[0] for p in base_pairs], [p[1] for p in base_pairs]):.2f}"
        )
    return result


# ---------------------------------------------------------------------- #
# E1 / E2: MIN-MAX and LEX scaling (Theorem 5.3, Section 5.2)
# ---------------------------------------------------------------------- #
def run_e1(
    sizes: Sequence[int] = (100, 200, 400, 800, 1600), phi: float = 0.5, seed: int = 7
) -> ExperimentResult:
    """MAX quantiles on the 3-path query: quasilinear vs materialization."""
    workloads = [
        path_workload(
            3, n, join_domain=max(2, n // 20), ranking=MaxRanking(["x1", "x4"]), seed=seed + n
        )
        for n in sizes
    ]
    return _scaling_experiment(
        "E1",
        "MAX quantile on a 3-path query, scaling the database size",
        "Theorem 5.3: MIN/MAX %JQ is solvable in O(n log n) for every acyclic JQ",
        workloads,
        phi,
    )


def run_e1_min(
    sizes: Sequence[int] = (100, 200, 400, 800), phi: float = 0.25, seed: int = 11
) -> ExperimentResult:
    """MIN quantiles on a 4-arm star query (many-children join tree)."""
    workloads = [
        star_workload(
            4, n, hub_domain=max(2, n // 15), ranking=MinRanking(["x1", "x2", "x3", "x4"]),
            seed=seed + n,
        )
        for n in sizes
    ]
    return _scaling_experiment(
        "E1b",
        "MIN quantile on a 4-arm star query, scaling the database size",
        "Theorem 5.3 also covers bushy join trees (star queries)",
        workloads,
        phi,
    )


def run_e2(
    sizes: Sequence[int] = (100, 200, 400, 800, 1600), phi: float = 0.75, seed: int = 13
) -> ExperimentResult:
    """LEX quantiles on the 3-path query."""
    workloads = [
        path_workload(
            3, n, join_domain=max(2, n // 20), ranking=LexRanking(["x1", "x4"]), seed=seed + n
        )
        for n in sizes
    ]
    return _scaling_experiment(
        "E2",
        "LEX quantile on a 3-path query, scaling the database size",
        "Section 5.2: LEX %JQ runs in O(n log n) via lexicographic trimming",
        workloads,
        phi,
    )


# ---------------------------------------------------------------------- #
# E3 / E4: tractable SUM cases (Theorem 5.6 positive side)
# ---------------------------------------------------------------------- #
def run_e3(
    sizes: Sequence[int] = (100, 200, 400, 800), phi: float = 0.5, seed: int = 17
) -> ExperimentResult:
    """Partial SUM over {x1,x2,x3} on the 3-path query (tractable side)."""
    workloads = [
        path_workload(
            3,
            n,
            join_domain=max(2, n // 20),
            ranking=SumRanking(["x1", "x2", "x3"]),
            seed=seed + n,
        )
        for n in sizes
    ]
    return _scaling_experiment(
        "E3",
        "Partial SUM(x1,x2,x3) quantile on a 3-path query",
        "Theorem 5.6 (positive): partial SUM is tractable when the weighted "
        "variables fit two adjacent join-tree nodes",
        workloads,
        phi,
    )


def run_e4(
    sizes: Sequence[int] = (200, 400, 800, 1600), phi: float = 0.5, seed: int = 19
) -> ExperimentResult:
    """Full SUM on the binary (2-atom) join: the classic tractable case."""
    workloads = [
        path_workload(
            2,
            n,
            join_domain=max(2, n // 25),
            ranking=SumRanking(["x1", "x2", "x3"]),
            seed=seed + n,
        )
        for n in sizes
    ]
    return _scaling_experiment(
        "E4",
        "Full SUM quantile on a binary join",
        "Section 2.3: full SUM over a 2-atom acyclic JQ is solvable in O(n log n)",
        workloads,
        phi,
    )


# ---------------------------------------------------------------------- #
# E5: the intractable SUM case and its approximations (Theorem 6.2)
# ---------------------------------------------------------------------- #
def run_e5(
    sizes: Sequence[int] = (100, 200, 400),
    phi: float = 0.5,
    epsilon: float = 0.25,
    seed: int = 23,
) -> ExperimentResult:
    """Full SUM on the 3-path query: materialize vs deterministic ε vs sampling."""
    result = ExperimentResult(
        experiment="E5",
        title="Full SUM on a 3-path query: exact materialization vs approximations",
        claim="Theorem 5.6 (negative) rules out exact quasilinear algorithms; "
        "Theorem 6.2 gives a deterministic ε-approximation, and Section 3.1 a "
        "randomized one",
        columns=[
            "n",
            "answers",
            "materialize_seconds",
            "approx_seconds",
            "sampling_seconds",
            "approx_rank_error",
            "sampling_rank_error",
            "epsilon",
        ],
    )
    for n in sizes:
        workload = path_workload(
            3,
            n,
            join_domain=max(2, n // 10),
            ranking=SumRanking(["x1", "x2", "x3", "x4"]),
            seed=seed + n,
        )
        weights = answer_weights(workload.query, workload.db, workload.ranking)
        total = len(weights)
        target = min(total - 1, int(phi * total))
        _, mat_time = time_call(
            lambda: materialize_quantile(workload.query, workload.db, workload.ranking, phi=phi)
        )
        approx_solver = PreparedQuery(
            workload.query, workload.db, workload.ranking, epsilon=epsilon,
            termination_factor=1,
        )
        approx, approx_time = time_call(lambda: approx_solver.quantile(phi))
        sampling_solver = PreparedQuery(
            workload.query, workload.db, workload.ranking, epsilon=epsilon,
            strategy="sampling", seed=seed,
        )
        sampled, sampling_time = time_call(lambda: sampling_solver.quantile(phi))
        result.rows.append(
            {
                "n": workload.database_size,
                "answers": total,
                "materialize_seconds": round(mat_time, 4),
                "approx_seconds": round(approx_time, 4),
                "sampling_seconds": round(sampling_time, 4),
                "approx_rank_error": round(
                    observed_rank_error(weights, approx.weight, target), 4
                ),
                "sampling_rank_error": round(
                    observed_rank_error(weights, sampled.weight, target), 4
                ),
                "epsilon": epsilon,
            }
        )
    result.notes.append(
        "both approximations keep the observed rank error within epsilon while "
        "materialization time tracks the answer count"
    )
    return result


# ---------------------------------------------------------------------- #
# E6 / E7: epsilon sweeps (Theorem 6.2, Lemma 3.6)
# ---------------------------------------------------------------------- #
def run_e6(
    epsilons: Sequence[float] = (0.4, 0.3, 0.2, 0.1, 0.05),
    n: int = 250,
    phi: float = 0.5,
    seed: int = 29,
) -> ExperimentResult:
    """Running time of the deterministic approximation as ε shrinks."""
    workload = path_workload(
        3, n, join_domain=max(2, n // 10), ranking=SumRanking(["x1", "x2", "x3", "x4"]),
        seed=seed,
    )
    weights = answer_weights(workload.query, workload.db, workload.ranking)
    total = len(weights)
    target = min(total - 1, int(phi * total))
    result = ExperimentResult(
        experiment="E6",
        title="Deterministic ε-approximation: runtime and error vs ε",
        claim="Theorem 6.2: the approximation runs in time quadratic in 1/ε and "
        "quasilinear in n; observed error stays within ε",
        columns=["epsilon", "n", "answers", "approx_seconds", "observed_rank_error", "within_epsilon"],
    )
    for epsilon in epsilons:
        solver = PreparedQuery(
            workload.query, workload.db, workload.ranking, epsilon=epsilon,
            termination_factor=1,
        )
        outcome, elapsed = time_call(lambda: solver.quantile(phi))
        error = observed_rank_error(weights, outcome.weight, target)
        result.rows.append(
            {
                "epsilon": epsilon,
                "n": workload.database_size,
                "answers": total,
                "approx_seconds": round(elapsed, 4),
                "observed_rank_error": round(error, 4),
                "within_epsilon": error <= epsilon,
            }
        )
    result.notes.append(
        "runtime grows as epsilon shrinks (sketch buckets ~ log_{1+eps} N per group)"
    )
    return result


def run_e7(
    epsilons: Sequence[float] = (0.3, 0.2, 0.1),
    n: int = 200,
    phis: Sequence[float] = (0.1, 0.5, 0.9),
    seed: int = 31,
) -> ExperimentResult:
    """Observed position error of deterministic vs randomized approximation."""
    workload = path_workload(
        3, n, join_domain=max(2, n // 10), ranking=SumRanking(["x1", "x2", "x3", "x4"]),
        seed=seed,
    )
    weights = answer_weights(workload.query, workload.db, workload.ranking)
    total = len(weights)
    result = ExperimentResult(
        experiment="E7",
        title="Observed rank error of the approximations across φ and ε",
        claim="Lemma 3.6: the deterministic scheme returns a (φ ± ε)-quantile; "
        "the sampling scheme achieves the same with high probability",
        columns=["phi", "epsilon", "deterministic_error", "sampling_error", "answers"],
    )
    for phi in phis:
        target = min(total - 1, int(phi * total))
        for epsilon in epsilons:
            det = PreparedQuery(
                workload.query, workload.db, workload.ranking, epsilon=epsilon,
                termination_factor=1,
            ).quantile(phi)
            samp = PreparedQuery(
                workload.query, workload.db, workload.ranking, epsilon=epsilon,
                strategy="sampling", seed=seed,
            ).quantile(phi)
            result.rows.append(
                {
                    "phi": phi,
                    "epsilon": epsilon,
                    "deterministic_error": round(
                        observed_rank_error(weights, det.weight, target), 4
                    ),
                    "sampling_error": round(
                        observed_rank_error(weights, samp.weight, target), 4
                    ),
                    "answers": total,
                }
            )
    return result


# ---------------------------------------------------------------------- #
# E8: pivot quality (Lemma 4.1)
# ---------------------------------------------------------------------- #
def run_e8(
    sizes: Sequence[int] = (100, 200, 400, 800),
    seed: int = 37,
) -> ExperimentResult:
    """Guaranteed c vs the observed balance of the selected pivot."""
    result = ExperimentResult(
        experiment="E8",
        title="Pivot selection: guaranteed c vs observed split balance",
        claim="Lemma 4.1: a c-pivot is found in linear time with c independent "
        "of the data size; in practice the split is far more balanced",
        columns=[
            "workload",
            "n",
            "answers",
            "guaranteed_c",
            "observed_below_fraction",
            "observed_above_fraction",
            "pivot_seconds",
        ],
    )
    for n in sizes:
        for workload in (
            path_workload(3, n, join_domain=max(2, n // 15), seed=seed + n),
            star_workload(3, n, hub_domain=max(2, n // 15), seed=seed + 2 * n),
        ):
            query, db = ensure_canonical(workload.query, workload.db)
            pivot, pivot_time = time_call(lambda: select_pivot(query, db, workload.ranking))
            weights = answer_weights(workload.query, workload.db, workload.ranking)
            below = sum(1 for w in weights if w <= pivot.weight) / len(weights)
            above = sum(1 for w in weights if w >= pivot.weight) / len(weights)
            result.rows.append(
                {
                    "workload": workload.name,
                    "n": workload.database_size,
                    "answers": len(weights),
                    "guaranteed_c": round(pivot.c, 4),
                    "observed_below_fraction": round(below, 4),
                    "observed_above_fraction": round(above, 4),
                    "pivot_seconds": round(pivot_time, 4),
                }
            )
    result.notes.append(
        "observed split fractions are always at least the guaranteed c, "
        "typically close to 1/2"
    )
    return result


# ---------------------------------------------------------------------- #
# E9: the introduction's social-network example
# ---------------------------------------------------------------------- #
def run_e9(
    sizes: Sequence[int] = (300, 600, 1200, 2400),
    phi: float = 0.1,
    seed: int = 41,
) -> ExperimentResult:
    """0.1-quantile by l2+l3 over Admin ⋈ Share ⋈ Attend."""
    workloads = [
        social_network_workload(
            num_admins=n // 3,
            num_shares=n,
            num_attends=n,
            num_events=max(3, n // 30),
            seed=seed + n,
        )
        for n in sizes
    ]
    result = _scaling_experiment(
        "E9",
        "Social-network example: 0.1-quantile of l2+l3 over user triples",
        "Introduction: the partial-sum social-network query is tractable and "
        "avoids materializing the (much larger) join result",
        workloads,
        phi,
    )
    return result


# ---------------------------------------------------------------------- #
# E10: crossover vs answer blow-up
# ---------------------------------------------------------------------- #
def run_e10(
    fanouts: Sequence[int] = (2, 10, 50, 200, 500),
    n: int = 1200,
    phi: float = 0.5,
    seed: int = 43,
) -> ExperimentResult:
    """Speedup of the pivoting algorithm as the answer/input ratio grows."""
    result = ExperimentResult(
        experiment="E10",
        title="Crossover: pivoting vs materialization as |Q(D)|/n grows",
        claim="The pivoting algorithm's cost is governed by n, the baseline's "
        "by |Q(D)|; their ratio grows with the join fan-out",
        columns=[
            "fanout",
            "n",
            "answers",
            "blowup",
            "solver_seconds",
            "baseline_seconds",
            "speedup",
        ],
    )
    for fanout in fanouts:
        workload = path_workload(
            2,
            n,
            join_domain=max(2, n // fanout),
            ranking=SumRanking(["x1", "x2", "x3"]),
            seed=seed + fanout,
        )
        row = _compare_row(workload, phi)
        result.rows.append(
            {
                "fanout": fanout,
                "n": row["n"],
                "answers": row["answers"],
                "blowup": round(row["answers"] / row["n"], 2),
                "solver_seconds": row["solver_seconds"],
                "baseline_seconds": row["baseline_seconds"],
                "speedup": row["speedup"],
            }
        )
    result.notes.append(
        "the speedup over materialization grows with the answer blow-up factor"
    )
    return result
