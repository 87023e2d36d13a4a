"""The differential lattice: every strategy, entry point and cache state
against one oracle.

Every (strategy, ranking) pair is a test case: a strategy (with its ε) and
a ranking (MIN, MAX, LEX, LEX under a key that maps distinct values alike,
partial SUM, full SUM, SUM with a weight function).  In each, hypothesis
draws a join from ``tests.conftest.join_instances`` over a few hostile
values (0 / 0.0 / -0.0 / False / True ties, a big int, ±inf, decimal
tenths) and a termination factor of 1 or 12 — a SUM at factor 1 one from
``pivoting_joins`` instead, big enough to pivot; the batch is a φ grid plus
the selections 0, N/3 and N - 1, with invalid φ and index values mixed in.

Each point runs through ``PreparedQuery`` cold, the same object warm, its
``cached()`` replay, ``Engine(db)``'s one-shot calls and the service's
``/query`` route (in process, no socket; spec-string rankings at the
service's factor 12).  The oracle is the nested-loop join, with
``t = min(N - 1, ⌊φ·N⌋)`` computed here:

* an exact result weighs the t-th sorted weight (a tie block's members may
  differ in repr, as 0.0 and -0.0 do: README, "Ties");
* ``approx-pivot`` (Theorem 6.2): the returned weight's rank range comes
  within ε·N of t; ``sampling`` (§3.1): the same when ε·N ≥ 1, else the
  (φ ± ε) form ``#{< w} ≤ (φ + ε)·N`` and ``#{≤ w} ≥ (φ − ε)·N``;
* every result is an answer of the join reporting its own weight, and every
  warm, replayed, one-shot or service result (as JSON) equals the cold one;
* a failure is the ``ReproError`` the point calls for, under every strategy
  alike: an intractable SUM under an exact plan, ``approx-pivot`` under
  MIN/MAX/LEX, an empty join, an answer weighing NaN (+inf plus -inf);
  invalid targets raise ``ValidationError``.

An exact SUM point (``sum``, ``sum-full``) also runs sharded, ``parallel=2``
over inline pools, against the same oracle: it shards exactly when its
serial source counts over a cover pair, and its merged terminal keeps equal
folds in shard order.  Few drawn joins spread over both shards, so each
exact ``sum`` example adds a star whose hub holds both shards' values
(``spread_points``), pivoting at factor 1.

A new strategy, entry point or ranking is one more value on an axis.  Not
covered: ranks of a SUM pivot whose answers' weights round differently in
another order of addition (exact SUM orders by the cover's fold, README
"SUM by counting over the cover"; ``approx-pivot`` may stall: the strict
xfail ``test_reassociated_sum_equals_materialize``), ``sum-typed`` weights
(``tests/core/test_float_sums.py``), and sharding's process pools, guards
and crashes (``tests/parallel/``).
``--hypothesis-profile=deep`` runs ten times the examples.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Any
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, note, settings, strategies as st

from repro.core.quantile import CoverCounting
from repro.core.result import QuantileResult
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import STRATEGIES, Engine, PreparedQuery
from repro.exceptions import (
    EmptyResultError, IntractableQueryError, RankingError, ReproError, SolverError,
    ValidationError,
)
from repro.parallel import merger
from repro.parallel.pool import InlinePool
from repro.query.atom import Atom
from repro.query.classify import classify_sum
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.ranking.base import RankingFunction
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.service.server import QuantileService

from tests.conftest import VALUES, join_instances, pivoting_joins, quantile_target

HOSTILE = [*VALUES, False, True, 2**63 + 11, math.inf, -math.inf, 0.1, 0.2, 0.3]
GRID = [i / 20 for i in range(21)]
EPSILONS = (0.05, 0.1, 0.3)
#: Sampling draws O(1/ε²) answers once per prepared query, each a direct
#: access: at ε = 0.05 that is 3 508 of them per point.
SAMPLING_EPSILONS = (0.1, 0.3)
BAD_PHIS = (-0.1, 1.5, math.nan, True, "0.5")
SEED = 3

#: Ranking kind -> factory over (the drawn weighted variables, all of them in
#: a drawn order).  LEX takes two or three positions: one is MAX's.
RANKINGS = {
    "min": lambda drawn, _: MinRanking(drawn),
    "max": lambda drawn, _: MaxRanking(drawn),
    "lex": lambda drawn, every: LexRanking(every[: 2 + (len(drawn) > 2)]),
    # ``abs`` keys distinct values alike (±inf, 0.0 and -0.0).
    "lex-abs": lambda drawn, every: LexRanking(every[: 2 + (len(drawn) > 2)], {every[0]: abs}),
    "sum": lambda drawn, _: SumRanking(drawn),
    "sum-full": lambda _, every: SumRanking(every),
    "sum-custom": lambda drawn, _: SumRanking(drawn, {drawn[0]: lambda v: 1 - 2.5 * v}),
}
#: The kinds a service request can name (a spec string has no weight functions).
SPEC_KINDS = ("min", "max", "lex", "sum", "sum-full")


@dataclass
class Point:
    query: JoinQuery
    db: Database
    ranking: RankingFunction
    kind: str
    knobs: dict[str, Any]

    def __repr__(self) -> str:
        rows = {relation.name: relation.rows for relation in self.db}
        return f"Point({self.query}, {rows}, {self.ranking}, {self.kind!r}, {self.knobs})"


@st.composite
def points(draw, strategy: str, kind: str) -> Point:
    # A few hostile values per join: keys meet, answers multiply, weights tie.
    palette = draw(st.lists(st.sampled_from(HOSTILE), min_size=2, max_size=5, unique_by=repr))
    factor = draw(st.sampled_from([1, 12]))
    if kind.startswith("sum") and factor == 1:
        # Tiny joins seldom pivot: at |D| a SUM steps on a join this size.
        query, db = draw(pivoting_joins(values=palette))
    else:
        query, db, _ = draw(join_instances(values=palette, min_rows=1))
    every = draw(st.permutations(sorted(query.variables)))
    # One to three weighted variables: a partial SUM of more is seldom tractable.
    ranking = RANKINGS[kind](every[: draw(st.integers(1, min(3, len(every))))], every)
    knobs: dict[str, Any] = {"strategy": strategy, "termination_factor": factor}
    if strategy == "approx-pivot":
        knobs["epsilon"] = draw(st.sampled_from(EPSILONS))
    elif strategy == "sampling":
        knobs["epsilon"] = draw(st.sampled_from(SAMPLING_EPSILONS))
        knobs["seed"] = SEED
    elif strategy == "auto":
        knobs["epsilon"] = draw(st.sampled_from((None, *EPSILONS)))
    return Point(query, db, ranking, kind, knobs)


@st.composite
def spread_points(draw, knobs: dict[str, Any]) -> Point:
    """``pivoting_joins``' 3-arm star with a hub of one value of each shard
    (hash 0: 0 / 0.0 / False, hash 1: 1 / 1.0 / True) under a SUM of two
    arms, at factor 1: every round merges two shards' counts."""
    palette = draw(st.lists(st.sampled_from(HOSTILE), min_size=2, max_size=5, unique_by=repr))
    hub = st.sampled_from([draw(st.sampled_from(alike)) for alike in ((0, 0.0, False), (1, 1.0, True))])
    rows = st.lists(st.tuples(hub, st.sampled_from([*palette, *range(8)])), min_size=10, max_size=10)
    db = Database([Relation(f"R{i}", ("a0", "a1"), draw(rows)) for i in range(3)])
    query = JoinQuery([Atom(f"R{i}", ("v0", f"v{i + 1}")) for i in range(3)])
    ranking = SumRanking(draw(st.permutations(["v1", "v2", "v3"]))[:2])
    return Point(query, db, ranking, "sum", dict(knobs, termination_factor=1))


@dataclass
class Oracle:
    weights: list[Any]  # the answers', sorted unless ``refusal``
    refusal: type[ReproError] | None  # what every call must raise
    planned: str  # the strategy a result reports
    # A SUM pivot some answer of which weighs another float in another order
    # of addition: its ranks go unchecked.
    reassociates: bool


def adds_exactly(ranking: SumRanking, answer: dict[str, Any]) -> bool:
    """Whether the answer's SUM is one float in every order of addition: an
    infinity absorbs the rest, and dyadic weights whose magnitudes add up to
    less than 2**53 units of the finest one never round."""
    weights = [ranking.variable_weight(v, answer[v]) for v in ranking.weighted_variables]
    if len(weights) < 3 or not all(map(math.isfinite, weights)):
        return True
    exact = [Fraction(weight) for weight in weights]
    return sum(map(abs, exact)) * max(f.denominator for f in exact) < 2**53


def oracle(point: Point) -> Oracle:
    ranking, strategy = point.ranking, point.knobs["strategy"]
    answers = point.query.answers_brute_force(point.db)
    weights = [ranking.weight_of(answer) for answer in answers]
    is_sum = isinstance(ranking, SumRanking)
    tractable = not is_sum or classify_sum(
        point.query, frozenset(ranking.weighted_variables)
    ).is_tractable
    planned = strategy if strategy != "auto" else (
        "exact-pivot" if tractable else "approx-pivot"
    )
    refusal: type[ReproError] | None = None
    if not tractable and planned == "exact-pivot" or (
        strategy == "auto" and not tractable and point.knobs.get("epsilon") is None
    ):
        refusal = IntractableQueryError
    elif planned == "approx-pivot" and not is_sum:
        refusal = SolverError
    elif not weights:
        refusal = EmptyResultError
    elif any(weight != weight for weight in weights):
        refusal = RankingError
    else:
        weights.sort()
    reassociates = (
        is_sum and planned in ("exact-pivot", "approx-pivot")
        and not all(adds_exactly(ranking, answer) for answer in answers)
    )
    return Oracle(weights, refusal, planned, reassociates)


def check(point: Point, truth: Oracle, mode: str, target: Any, result: Any) -> None:
    """One cold outcome against the oracle."""
    if truth.refusal is not None:
        assert isinstance(result, truth.refusal), f"{result!r}: expected {truth.refusal.__name__}"
        return
    if truth.reassociates and isinstance(result, SolverError):
        return  # the fold order is not weight_of's: the loop may stall
    assert isinstance(result, QuantileResult), f"{mode}={target!r}: {result!r}"
    weights = truth.weights
    total = len(weights)
    t = target if mode == "index" else quantile_target(target, total)
    assert (result.target_index, result.total_answers) == (t, total)
    assert result.strategy == truth.planned
    assert point.query.satisfies(result.assignment, point.db), f"{result.assignment} is no answer"
    assert repr(result.weight) == repr(point.ranking.weight_of(result.assignment))
    if truth.reassociates:
        return
    first = bisect_left(weights, result.weight)
    last = bisect_right(weights, result.weight) - 1
    epsilon = point.knobs.get("epsilon")
    if truth.planned in ("exact-pivot", "materialize"):
        assert result.exact
        assert first <= t <= last, f"{result.weight!r} has ranks [{first}, {last}], target {t}"
    elif truth.planned == "sampling" and epsilon * total < 1:
        phi = target if mode == "phi" else (t + 0.5) / total
        assert first <= (phi + epsilon) * total and last + 1 >= (phi - epsilon) * total, (
            f"ranks [{first}, {last}] of {total} vs φ = {phi} at ε = {epsilon}"
        )
    else:
        assert max(first - t, t - last, 0) <= epsilon * total, (
            f"ranks [{first}, {last}] of {total} vs target {t} at ε = {epsilon}"
        )


def outcome(call) -> Any:
    """The call's result, or the ``ReproError`` it raised (anything else fails)."""
    try:
        return call()
    except ReproError as error:
        return error


def run(quantiles, selection, targets) -> list[Any]:
    """An outcome per target: the φs as one batch (its error is each φ's),
    then each selection."""
    phis = [target for mode, target in targets if mode == "phi"]
    batch = outcome(lambda: quantiles(phis))
    results = batch if isinstance(batch, list) else [batch] * len(phis)
    return results + [
        outcome(lambda index=index: selection(index))
        for mode, index in targets if mode == "index"
    ]


def key(result: Any) -> str:
    if isinstance(result, ReproError):
        return f"{type(result).__name__}: {result}"
    return repr(result)


def as_json(mode: str, target: Any, result: Any) -> dict[str, Any]:
    """One service result entry for an in-process outcome."""
    if isinstance(result, ReproError):
        error = {"type": type(result).__name__, "message": str(result)}
        error.update({name: getattr(result, name, None) for name in ("budget", "checkpoint")})
        return {mode: target, "error": error}
    fields = (
        "weight", "assignment", "strategy", "exact", "epsilon", "target_index",
        "total_answers", "degraded", "degradation",
    )
    return {mode: target, **{name: getattr(result, name) for name in fields}}


@pytest.fixture(scope="module")
def service():
    """``(register(db) -> name, post(request) -> (status, payload))`` over one
    ``QuantileService``'s ``/query`` route, driven on a private event loop."""
    service, loop, names = QuantileService(), asyncio.new_event_loop(), itertools.count()

    def register(db: Database) -> str:
        name = f"lattice-{next(names)}"
        service.pool.register(name, db)
        return name

    def post(request: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        routed = service._route("POST", "/query", json.dumps(request).encode())
        status, payload, _ = loop.run_until_complete(routed)
        return status, payload

    yield register, post
    loop.run_until_complete(service.shutdown())
    loop.close()


def check_service(service, point: Point, targets, cold: list[Any]) -> None:
    """Service requests for ``targets`` (the φs as one, a selection each)
    answer the JSON of the cold outcomes."""
    register, post = service
    variables = ", ".join(point.ranking.weighted_variables)
    request = {
        "db": register(point.db),
        "query": ", ".join(str(atom) for atom in point.query.atoms),
        "ranking": f"{point.ranking.name.lower()}({variables})",
        **{k: v for k, v in point.knobs.items() if k != "termination_factor" and v is not None},
    }
    phis = [target for mode, target in targets if mode == "phi"]
    requests = [(dict(request, phis=phis), targets[: len(phis)], cold[: len(phis)])] + [
        (dict(request, index=index), [(mode, index)], [result])
        for (mode, index), result in zip(targets[len(phis):], cold[len(phis):])
    ]
    for body, asked, expected in requests:
        status, payload = post(body)
        if "results" not in payload:
            # The request failed before any target ran: preparing it raised.
            assert status == 400 and all(
                isinstance(result, ReproError) and str(result) == payload["error"]
                for result in expected
            ), (status, payload, expected)
            continue
        served = json.dumps(payload["results"])
        assert served == json.dumps([as_json(m, t, r) for (m, t), r in zip(asked, expected)])
        assert status == (200 if any(isinstance(r, QuantileResult) for r in expected) else 400)
    for bad in ({"phis": [0.5, True]}, {"phis": [0.5, 1.5]}, {"index": -1}):
        assert post(dict(request, **bad))[0] == 400


def targets_of(total: int) -> list[tuple[str, Any]]:
    """The φ grid, then the selections 0, N/3 and N - 1."""
    selections = dict.fromkeys((0, total // 3, max(total - 1, 0)))
    return [("phi", phi) for phi in GRID] + [("index", index) for index in selections]


def check_sharded(point: Point, truth: Oracle, targets) -> None:
    """The point over two inline shard workers: every outcome passes the
    oracle, it shards iff its serial source counts over a cover pair, and
    the root's merged terminal is the shards' pairs stably sorted by fold,
    shard by shard."""
    note(f"sharded: {point!r}")
    with mock.patch.object(merger, "create_pool", InlinePool):
        sharded = PreparedQuery(point.query, point.db, point.ranking, parallel=2, **point.knobs)
        try:
            for (mode, target), result in zip(targets, run(sharded.quantiles, sharded.selection, targets)):
                check(point, truth, mode, target, result)
            if truth.refusal is not None:
                return
            pair = isinstance(sharded._ensure_source("exact-pivot"), CoverCounting)
            assert (sharded.shards == 2) == pair, sharded.parallel_note
            if pair:
                rank = sharded._parallel_merger
                pairs = rank.session.fan_out((s, "terminal", rank.root[0]) for s in (0, 1))
                merged = sorted(((p[0], s, *p[2:]) for s in (0, 1) for p in pairs[s]), key=itemgetter(0))
                terminal = rank.terminal(WeightInterval(), rank.root, point.query.variables)
                assert terminal.keys == [p[1:] for p in merged]
        finally:
            sharded.close()


@pytest.mark.parametrize("kind", sorted(RANKINGS))
@pytest.mark.parametrize("strategy", STRATEGIES)
#: A tenth of the profile's examples per (strategy, ranking) cell: 350 in
#: all by default, 3 500 under ``deep``.
@settings(
    max_examples=settings.default.max_examples // 10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_entry_point_agrees_with_the_oracle(service, strategy, kind, data):
    point = data.draw(points(strategy, kind))
    note(repr(point))
    truth = oracle(point)
    total = len(truth.weights)
    targets = targets_of(total)

    prepared = PreparedQuery(point.query, point.db, point.ranking, **point.knobs)
    cold = run(prepared.quantiles, prepared.selection, targets)
    for (mode, target), result in zip(targets, cold):
        check(point, truth, mode, target, result)
    assert outcome(prepared.count) == total

    warm = run(prepared.quantiles, prepared.selection, targets)
    assert [key(r) for r in warm] == [key(r) for r in cold]

    for (mode, target), result in zip(targets, warm):
        replayed = outcome(partial(prepared.cached, **{mode: target}))
        if replayed is None:
            assert isinstance(result, ReproError)
        elif not (truth.reassociates and isinstance(result, SolverError)):
            # (A stall fails the whole φ batch; the replay answers per φ.)
            assert key(replayed) == key(result), f"replay of {mode}={target!r}"

    engine, args = Engine(point.db), (point.query, point.ranking)
    one_shot = run(
        lambda phis: engine.quantiles(*args, phis, **point.knobs),
        lambda index: engine.selection(*args, index, **point.knobs),
        targets,
    )
    assert [key(r) for r in one_shot] == [key(r) for r in cold]

    valid = ValidationError if truth.refusal is None else ReproError
    for phi in BAD_PHIS:
        assert isinstance(outcome(lambda phi=phi: prepared.quantile(phi)), valid)
        assert isinstance(outcome(lambda phi=phi: prepared.quantiles([0.5, phi])), ValidationError)
    for index in (-1, total, True, 1.5):
        assert isinstance(outcome(lambda index=index: prepared.selection(index)), valid)

    if point.kind in SPEC_KINDS and point.knobs["termination_factor"] == 12:
        check_service(service, point, targets, cold)

    if point.kind in ("sum", "sum-full") and truth.planned == "exact-pivot":
        check_sharded(point, truth, targets)
        if point.kind == "sum":
            spread = data.draw(spread_points(point.knobs))
            truth = oracle(spread)
            check_sharded(spread, truth, targets_of(len(truth.weights)))
