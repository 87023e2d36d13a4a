"""Micro-benchmarks and ablations: E11 (sketch), A1, A3, A4 (design decisions)."""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from repro.approx.lossy_sum_trim import LossySumTrimmer
from repro.approx.sketch import count_below, epsilon_sketch, sketch_count_below
from repro.baselines.materialize import answer_weights
from repro.bench.harness import ExperimentResult, observed_rank_error, time_call
from repro.core.quantile import pivoting_quantile
from repro.engine import PreparedQuery
from repro.query.rewrite import ensure_canonical
from repro.ranking.sum import SumRanking
from repro.workloads.path import path_workload
from repro.workloads.star import star_workload


# ---------------------------------------------------------------------- #
# E11: epsilon-sketch micro-benchmark (Lemma 6.3)
# ---------------------------------------------------------------------- #
def run_e11(
    epsilons: Sequence[float] = (0.5, 0.25, 0.1, 0.05),
    multiset_size: int = 20_000,
    seed: int = 47,
) -> ExperimentResult:
    """Bucket count and worst-case relative rank error of the ε-sketch."""
    rng = random.Random(seed)
    items = [(rng.random() * 1000.0, rng.randrange(1, 5)) for _ in range(multiset_size)]
    total = sum(m for _, m in items)
    thresholds = sorted(rng.choice(items)[0] for _ in range(200))
    result = ExperimentResult(
        experiment="E11",
        title="ε-sketch: compression and rank-count guarantee",
        claim="Lemma 6.3: O(log_{1+ε}|L|) buckets with relative rank error ≤ ε",
        columns=[
            "epsilon",
            "items",
            "total_multiplicity",
            "buckets",
            "log_bound",
            "max_relative_error",
            "within_epsilon",
        ],
    )
    for epsilon in epsilons:
        buckets, _ = time_call(lambda: epsilon_sketch(items, epsilon, direction="upper"))
        worst = 0.0
        for threshold in thresholds:
            exact = count_below(items, threshold)
            approx = sketch_count_below(buckets, threshold)
            if exact:
                worst = max(worst, (exact - approx) / exact)
        log_bound = 2 + math.log(max(total, 2)) / math.log(1 + epsilon)
        result.rows.append(
            {
                "epsilon": epsilon,
                "items": len(items),
                "total_multiplicity": total,
                "buckets": len(buckets),
                "log_bound": round(log_bound, 1),
                "max_relative_error": round(worst, 4),
                "within_epsilon": worst <= epsilon,
            }
        )
    return result


# ---------------------------------------------------------------------- #
# A1: error-budget ablation for the lossy trimming
# ---------------------------------------------------------------------- #
def run_a1(
    n: int = 150,
    phi: float = 0.5,
    epsilon: float = 0.3,
    seed: int = 53,
) -> ExperimentResult:
    """Practical vs paper (worst-case) sketch-ε budget in the lossy trimming."""
    workload = path_workload(
        3, n, join_domain=max(2, n // 10), ranking=SumRanking(["x1", "x2", "x3", "x4"]),
        seed=seed,
    )
    weights = answer_weights(workload.query, workload.db, workload.ranking)
    total = len(weights)
    target = min(total - 1, int(phi * total))
    result = ExperimentResult(
        experiment="A1",
        title="Lossy trimming: practical vs worst-case sketch-ε budget",
        claim="Section 6: the worst-case budget "
        "(ε/4^height per sketch) is safe but conservative; the practical "
        "budget stays within ε at a fraction of the cost",
        columns=["budget", "sketch_epsilon", "seconds", "observed_rank_error", "within_epsilon"],
    )
    for budget in ("practical", "paper"):
        ranking = workload.ranking
        assert isinstance(ranking, SumRanking)
        trimmer = LossySumTrimmer(ranking, epsilon=epsilon / 4.0, budget=budget)
        canonical_query, canonical_db = ensure_canonical(workload.query, workload.db)
        outcome, elapsed = time_call(
            lambda: pivoting_quantile(
                workload.query, workload.db, ranking, trimmer, phi=phi, epsilon=epsilon
            )
        )
        error = observed_rank_error(weights, outcome.weight, target)
        result.rows.append(
            {
                "budget": budget,
                "sketch_epsilon": round(trimmer.sketch_epsilon(canonical_query), 5),
                "seconds": round(elapsed, 4),
                "observed_rank_error": round(error, 4),
                "within_epsilon": error <= epsilon,
            }
        )
    return result


# ---------------------------------------------------------------------- #
# A3: phi sensitivity
# ---------------------------------------------------------------------- #
def run_a3(
    phis: Sequence[float] = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
    n: int = 600,
    seed: int = 61,
) -> ExperimentResult:
    """Cost of the pivoting algorithm across the quantile position φ (under
    partial SUM, which counts over the cover pair; MIN/MAX/LEX bisect keys)."""
    workload = path_workload(
        3, n, join_domain=max(2, n // 15), ranking=SumRanking(["x1", "x2", "x3"]), seed=seed
    )
    result = ExperimentResult(
        experiment="A3",
        title="Sensitivity of the pivoting algorithm to the quantile position φ",
        claim="Algorithm 1's iteration count is governed by the pivot quality, "
        "not by φ: extreme quantiles cost about the same as the median",
        columns=["phi", "iterations", "seconds", "weight"],
    )
    for phi in phis:
        solver = PreparedQuery(
            workload.query, workload.db, workload.ranking, termination_factor=1
        )
        outcome, elapsed = time_call(lambda: solver.quantile(phi))
        result.rows.append(
            {
                "phi": phi,
                "iterations": outcome.iterations,
                "seconds": round(elapsed, 4),
                "weight": outcome.weight,
            }
        )
    return result


# ---------------------------------------------------------------------- #
# A4: pivot quality on bushy star queries of growing width
# ---------------------------------------------------------------------- #
def run_a4(
    arms: Sequence[int] = (2, 3, 4, 5),
    n: int = 300,
    seed: int = 67,
) -> ExperimentResult:
    """How the guaranteed c degrades with the number of join-tree children."""
    from repro.pivot.pivot_selection import select_pivot

    result = ExperimentResult(
        experiment="A4",
        title="Guaranteed pivot quality c vs join-tree width",
        claim="Lemma 4.6: c shrinks geometrically with the number of children "
        "but stays independent of the data size",
        columns=["arms", "n", "answers", "guaranteed_c", "observed_below_fraction"],
    )
    for width in arms:
        workload = star_workload(
            width, n, hub_domain=max(2, n // 10), seed=seed + width
        )
        query, db = ensure_canonical(workload.query, workload.db)
        pivot = select_pivot(query, db, workload.ranking)
        weights = answer_weights(workload.query, workload.db, workload.ranking)
        below = sum(1 for w in weights if w <= pivot.weight) / len(weights)
        result.rows.append(
            {
                "arms": width,
                "n": workload.database_size,
                "answers": len(weights),
                "guaranteed_c": round(pivot.c, 5),
                "observed_below_fraction": round(below, 4),
            }
        )
    return result
