"""Child-process side of the three in-process batch workloads.

One repetition is *cold*: fresh ``Relation``/``Database``/``Engine`` objects
are built from the raw rows, so no ``IndexCatalog``/``TreeCache``/pivot-cache
state survives from the repetition before.  It times

* ``setup``  raw rows -> ``Engine(db).prepare(...)`` returned (eager; on the
  sharded workload this includes worker start and shard ship),
* ``first``  ``pq.quantile(0.5)`` on the fresh prepared query,
* ``batch``  ``first`` + ``pq.quantiles(the other 18 phi)``,

then — untraced pass only — drives the now-warm prepared query in a short
closed loop (one caller, seeded phi picks), which is where the in-process
``throughput_rps`` / ``req_p50_ms`` come from.  Every answer is compared with
the oracle's.
"""

from __future__ import annotations

from contextlib import nullcontext
import gc
import multiprocessing
import random
import resource
import statistics
import time
from pathlib import Path
from typing import Any

from tracing import QUANTILE_SPAN, Recorder, install, self_times
from workloads import PHI_FIRST, PHI_ORDER, PHI_REST, WorkloadSpec, generate_rows

clock = time.perf_counter

#: Seeded phi picks per warm slice are drawn once and cycled.
WARM_PICKS = 4096


def peak_rss_mb() -> float:
    """Max RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _wait_for_workers(timeout: float = 15.0) -> None:
    """Block until every worker process of a closed pool has ended."""
    deadline = clock() + timeout
    while multiprocessing.active_children():
        if clock() > deadline:
            raise RuntimeError("shard worker processes did not exit after close()")
        time.sleep(0.005)


class BatchRunner:
    """Cold repetitions (and warm slices) of one batch workload."""

    def __init__(self, spec: WorkloadSpec, seed: int, expected: dict[str, Any]) -> None:
        self.spec = spec
        self.rows = generate_rows(spec, seed)
        self.ranking = spec.rankings[0]
        oracle = expected[self.ranking]
        self.total = oracle["total_answers"]
        by_phi = {entry["phi"]: entry for entry in oracle["quantiles"]}
        self.want = [
            (by_phi[phi]["weight"], by_phi[phi]["target_index"]) for phi in PHI_ORDER
        ]
        rng = random.Random(seed)
        self.picks = [rng.randrange(len(PHI_ORDER)) for _ in range(WARM_PICKS)]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def _check(self, position: int, result: Any) -> None:
        self.attempted += 1
        weight, target = self.want[position]
        got = list(result.weight) if isinstance(result.weight, tuple) else result.weight
        if (
            got != weight
            or result.target_index != target
            or result.total_answers != self.total
            or not result.exact
            or result.degraded
        ):
            self.fail(
                f"phi={PHI_ORDER[position]}: got weight={got!r} "
                f"index={result.target_index} total={result.total_answers} "
                f"exact={result.exact} degraded={result.degraded}; "
                f"oracle weight={weight!r} index={target} total={self.total}"
            )

    def cold_rep(
        self,
        parallel: int | None,
        warm_seconds: float = 0.0,
        recorder: Recorder | None = None,
    ) -> dict[str, Any]:
        """One cold repetition; see the module docstring for what is timed."""
        from repro import Engine
        from repro.data.database import Database
        from repro.data.relation import Relation
        from repro.runtime import ExecutionContext

        def span(name: str) -> Any:
            return recorder.span(name) if recorder else nullcontext()

        gc.collect()
        rep: dict[str, Any] = {}
        started = clock()
        with span("bench.setup"):
            db = Database(
                [
                    Relation(name, schema, tuples)
                    for name, (schema, tuples) in self.rows.items()
                ]
            )
            pq = Engine(db).prepare(self.spec.query, self.ranking, parallel=parallel)
        prepared = clock()
        try:
            # The ambient context makes checkpoints count rows; it costs what
            # a checkpoint costs, so only the traced pass carries it.
            context = ExecutionContext() if recorder else None
            with span("bench.batch"), context or nullcontext():
                first = pq.quantile(PHI_FIRST)
                first_done = clock()
                rest = pq.quantiles(PHI_REST)
                batch_done = clock()
            if context:
                rep["rows_used"] = context.rows_used
                rep["checkpoints"] = context.checkpoints
            rep.update(
                setup_s=prepared - started,
                first_s=first_done - prepared,
                batch_s=batch_done - prepared,
            )
            results = [first, *rest]
            for position, result in enumerate(results):
                self._check(position, result)
            if parallel:
                self.attempted += 1
                if pq.shards != parallel or pq.parallel_note is not None:
                    self.fail(
                        f"sharded run fell back: shards={pq.shards} "
                        f"note={pq.parallel_note!r}"
                    )
            rep["iterations"] = sum(result.iterations for result in results)
            if recorder:
                reduced = list(recorder.reduced_db)
                rep["index_hits"] = sum(relation.indexes.hits for relation in reduced)
                rep["index_misses"] = sum(relation.indexes.misses for relation in reduced)
            rep["tree_hits"] = pq.tree_cache.hits
            rep["tree_misses"] = pq.tree_cache.misses
            rep["pivot_cache_entries"] = pq.pivot_cache_size
            if warm_seconds:
                rep.update(self._warm_slice(pq, warm_seconds))
        finally:
            pq.close()
            _wait_for_workers()
        return rep

    def _warm_slice(self, pq: Any, seconds: float) -> dict[str, Any]:
        """Closed loop, one caller: every call is a pivot/answer-cache hit."""
        latencies: list[float] = []
        picks = self.picks
        started = clock()
        deadline = started + seconds
        done = 0
        while True:
            position = picks[done % WARM_PICKS]
            begun = clock()
            result = pq.quantile(PHI_ORDER[position])
            ended = clock()
            latencies.append(ended - begun)
            self._check(position, result)
            done += 1
            if ended >= deadline:
                break
        return {
            "warm_rps": done / (clock() - started),
            "warm_p50_ms": statistics.median(latencies) * 1e3,
            "warm_latencies": latencies,
        }


def _cold_guard(reps: list[dict[str, Any]], runner: BatchRunner) -> dict[str, Any]:
    """Cold means cold: every repetition misses the tree cache (and, where
    the traced pass can see it, the index catalog) exactly as often and fills
    the same number of pivot-cache entries.  These are exact counts, so a
    mismatch fails the run.  The set-up ratio is reported only: on a noisy
    box a timing cannot tell a surviving cache from a stall."""
    keys = ("tree_misses", "pivot_cache_entries", "index_misses")
    counts = [tuple(rep.get(key) for key in keys) for rep in reps]
    runner.attempted += 1
    if len(set(counts)) != 1:
        runner.fail(f"cache fills {keys} differ between cold repetitions: {counts}")
    setups = [rep["setup_s"] for rep in reps]
    return {
        **dict(zip(keys, counts[0])),
        "min_setup_over_first": min(setups) / setups[0],
    }


def summary(values: list[float]) -> dict[str, float]:
    """Best, median and worst of one timing across repetitions."""
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def run_untraced(spec: WorkloadSpec, job: dict[str, Any]) -> dict[str, Any]:
    runner = BatchRunner(spec, job["seed"], job["expected"])
    warm_seconds = job["warm_slice_seconds"]
    runner.cold_rep(spec.parallel, warm_seconds)  # warm-up: imports, lazy init
    runner.attempted = runner.failed = 0
    reps: list[dict[str, Any]] = []
    started = clock()
    while clock() - started < job["seconds"] or len(reps) < job["min_reps"]:
        reps.append(runner.cold_rep(spec.parallel, warm_seconds))
    guard = _cold_guard(reps, runner)
    samples = {
        key: [rep[key] for rep in reps]
        for key in ("setup_s", "first_s", "batch_s", "warm_rps", "warm_p50_ms")
    }
    warm = [latency for rep in reps for latency in rep["warm_latencies"]]
    return {
        # Best repetition / best warm slice, not the median: see README,
        # "Why best-of-N".  Medians are in detail.summary.
        "metrics": {
            "setup_s": min(samples["setup_s"]),
            "batch_s": min(samples["batch_s"]),
            "throughput_rps": max(samples["warm_rps"]),
            "req_p50_ms": min(samples["warm_p50_ms"]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "detail": {
            "reps": len(reps),
            "summary": {key: summary(values) for key, values in samples.items()},
            "first_quantile_s": min(samples["first_s"]),
            "req_p99_ms": percentile(warm, 0.99) * 1e3,
            "req_samples": len(warm),
            "cold_guard": guard,
            "samples": samples,
        },
    }


#: Per-layer metrics that are counts: they must repeat exactly between reps.
COUNT_METRICS = (
    "joins.tree_builds", "joins.count_calls", "joins.evaluate_calls",
    "joins.evaluate_answers", "pivot.select_calls", "pivot.weighted_median_calls",
    "trim.interval_calls", "core.iterations", "core.pivot_cache_entries",
    "kernels.calls", "runtime.rows_used", "runtime.checkpoints",
    "parallel.shipped_rows", "parallel.rounds", "parallel.result_bytes",
)


def layer_metrics(
    busy: dict[str, float], calls: dict[str, int], counters: dict[str, float]
) -> dict[str, float]:
    """The per-layer metrics that come straight from spans and counters."""
    return {
        "query.canonicalize_s": busy.get("query.canonicalize", 0.0),
        "joins.full_reduce_s": busy.get("joins.full_reduce", 0.0),
        "joins.tree_build_s": busy.get("joins.tree_build", 0.0),
        "joins.tree_builds": calls.get("joins.tree_build", 0),
        "joins.count_s": busy.get("joins.count", 0.0),
        "joins.count_calls": calls.get("joins.count", 0),
        "joins.evaluate_s": busy.get("joins.evaluate", 0.0),
        "joins.evaluate_calls": calls.get("joins.evaluate", 0),
        "joins.evaluate_answers": counters.get("joins.evaluate_answers", 0),
        "pivot.select_s": busy.get("pivot.select", 0.0),
        "pivot.select_calls": calls.get("pivot.select", 0),
        "pivot.weighted_median_calls": counters.get("pivot.weighted_median_calls", 0),
        "trim.interval_s": busy.get("trim.interval", 0.0),
        "trim.interval_calls": calls.get("trim.interval", 0),
        "core.self_s": busy.get(QUANTILE_SPAN, 0.0),
        "kernels.calls": counters.get("kernels.calls", 0),
        "kernels.busy_s": counters.get("kernels.busy_s", 0.0),
        "parallel.plan_s": busy.get("parallel.plan", 0.0),
        "parallel.start_s": busy.get("parallel.start", 0.0),
        "parallel.shipped_rows": counters.get("parallel.shipped_rows", 0),
        "parallel.rounds": calls.get("parallel.round", 0),
        "parallel.round_s": busy.get("parallel.round", 0.0),
        "parallel.result_bytes": counters.get("parallel.result_bytes", 0),
    }


def _rep_metrics(
    rep: dict[str, Any], layer: dict[str, float], counters: dict[str, float], sharded: bool
) -> dict[str, float]:
    """``layer`` plus what one repetition's prepared query and context report."""

    def rate(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        **layer,
        "joins.tree_hit_rate": rate(rep["tree_hits"], rep["tree_misses"]),
        "core.iterations": rep["iterations"],
        # The sharded loop keeps its pivot steps in the merger, one per
        # "pivot" fan-out; the serial loop in the prepared query's cache.
        "core.pivot_cache_entries": (
            counters.get("parallel.pivot_rounds", 0) if sharded
            else rep["pivot_cache_entries"]
        ),
        "data.index_hit_rate": rate(rep["index_hits"], rep["index_misses"]),
        "runtime.rows_used": rep["rows_used"],
        "runtime.checkpoints": rep["checkpoints"],
        "parallel.merge_self_s": layer["core.self_s"] if sharded else 0.0,
    }


def run_traced(spec: WorkloadSpec, job: dict[str, Any]) -> dict[str, Any]:
    runner = BatchRunner(spec, job["seed"], job["expected"])
    sharded = bool(spec.parallel)
    runner.cold_rep(spec.parallel)  # warm-up
    runner.attempted = runner.failed = 0
    started = clock()
    plain_batch = min(
        runner.cold_rep(spec.parallel)["batch_s"] for _ in range(job["plain_reps"])
    )
    speedup = 0.0
    if sharded:
        runner.cold_rep(None)  # warm-up of the serial path
        serial_batch = min(
            runner.cold_rep(None)["batch_s"] for _ in range(job["plain_reps"])
        )
        speedup = serial_batch / plain_batch

    recorder = Recorder()
    install(recorder)
    reps: list[dict[str, Any]] = []
    layers: list[dict[str, float]] = []
    accounted: list[float] = []
    while clock() - started < job["seconds"] or len(reps) < job["min_reps"]:
        first_span = len(recorder.spans)
        before = dict(recorder.counters)
        rep = runner.cold_rep(spec.parallel, recorder=recorder)
        busy, calls = self_times(recorder.spans, first_span)
        counters = {
            key: value - before.get(key, 0) for key, value in recorder.counters.items()
        }
        reps.append(rep)
        layers.append(
            _rep_metrics(rep, layer_metrics(busy, calls, counters), counters, sharded)
        )
        accounted.append(1.0 - busy["bench.batch"] / rep["batch_s"])
    guard = _cold_guard(reps, runner)

    # The split of the fastest traced repetition: one coherent repetition,
    # and the one least disturbed by the machine (see README).
    best = min(range(len(reps)), key=lambda index: reps[index]["batch_s"])
    metrics = dict(layers[best])
    unstable = [
        name for name in COUNT_METRICS if len({layer[name] for layer in layers}) != 1
    ]
    metrics["parallel.speedup"] = speedup
    metrics["trace.overhead_ratio"] = reps[best]["batch_s"] / plain_batch
    trace_file = Path(job["out_dir"]) / f"trace_{spec.name}.json"
    recorder.dump(trace_file)
    return {
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "detail": {
            "reps": len(reps),
            "traced_batch_s": reps[best]["batch_s"],
            "untraced_batch_s": plain_batch,
            "accounted_share": accounted[best],
            "counts_repeat": not unstable,
            "unstable_counts": unstable,
            "cold_guard": guard,
            "spans": len(recorder.spans),
            "trace_file": str(trace_file),
        },
    }


def run(spec: WorkloadSpec, job: dict[str, Any]) -> dict[str, Any]:
    return run_traced(spec, job) if job["trace"] else run_untraced(spec, job)
