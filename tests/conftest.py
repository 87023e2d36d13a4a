"""Shared fixtures and correctness oracles for the test suite."""

from __future__ import annotations

import math
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings, strategies as st

#: ``--hypothesis-profile=deep``: ten times the default examples, and ten
#: times the differential lattice's (``tests/test_lattice.py`` scales by it).
settings.register_profile("deep", max_examples=1000)

#: Hard wall-clock ceiling for any one fault-injection test.  A regression
#: that makes a checkpoint uninterruptible (or a fault leave a cache in a
#: rebuild loop) must fail the test, not hang the suite; the container has no
#: pytest-timeout, so SIGALRM is the enforcement mechanism.
FAULT_TEST_TIMEOUT_SECONDS = 30


@pytest.fixture(autouse=True)
def _fault_test_deadline(request):
    """Arm a hard per-test timeout for every ``faults``-marked test."""
    if request.node.get_closest_marker("faults") is None or not hasattr(
        signal, "SIGALRM"
    ):
        yield
        return

    def _expired(signum, frame):
        raise RuntimeError(
            f"fault-injection test exceeded the hard "
            f"{FAULT_TEST_TIMEOUT_SECONDS}s timeout"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(FAULT_TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.parallel import merger
from repro.parallel.pool import InlinePool
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.runtime.context import set_fault_hook


@pytest.fixture()
def inline_mode(monkeypatch):
    """Run shard pools synchronously in-process (deterministic, no fork cost)."""
    monkeypatch.setattr(merger, "create_pool", InlinePool)


# ---------------------------------------------------------------------- #
# Canonical example databases from the paper
# ---------------------------------------------------------------------- #
@pytest.fixture
def figure1_db() -> Database:
    """The example database of Figure 1 (13 join answers)."""
    return Database(
        [
            Relation("R", ("x1", "x2"), [(1, 1), (2, 2)]),
            Relation("S", ("x1", "x3"), [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]),
            Relation("T", ("x2", "x4"), [(1, 6), (1, 7), (2, 6)]),
            Relation("U", ("x4", "x5"), [(6, 8), (6, 9), (7, 9)]),
        ]
    )


@pytest.fixture
def figure1_query() -> JoinQuery:
    """``R(x1,x2), S(x1,x3), T(x2,x4), U(x4,x5)`` (Figure 1)."""
    return JoinQuery(
        [
            Atom("R", ("x1", "x2")),
            Atom("S", ("x1", "x3")),
            Atom("T", ("x2", "x4")),
            Atom("U", ("x4", "x5")),
        ]
    )


@pytest.fixture
def binary_join() -> tuple[JoinQuery, Database]:
    """A small binary join ``R1(x1,x2), R2(x2,x3)`` with heavy fan-out."""
    rng = random.Random(3)
    r1 = [(rng.randrange(30), rng.randrange(4)) for _ in range(40)]
    r2 = [(rng.randrange(4), rng.randrange(30)) for _ in range(40)]
    query = JoinQuery([Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3"))])
    db = Database(
        [Relation("R1", ("x1", "x2"), r1), Relation("R2", ("x2", "x3"), r2)]
    )
    return query, db


@pytest.fixture
def three_path() -> tuple[JoinQuery, Database]:
    """A 3-atom path query with moderate fan-out (a few thousand answers)."""
    rng = random.Random(5)
    query = JoinQuery(
        [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3")), Atom("R3", ("x3", "x4"))]
    )
    db = Database(
        [
            Relation(
                "R1", ("x1", "x2"),
                [(rng.randrange(40), rng.randrange(6)) for _ in range(50)],
            ),
            Relation(
                "R2", ("x2", "x3"),
                [(rng.randrange(6), rng.randrange(6)) for _ in range(50)],
            ),
            Relation(
                "R3", ("x3", "x4"),
                [(rng.randrange(6), rng.randrange(40)) for _ in range(50)],
            ),
        ]
    )
    return query, db


def pivoting(query, db, ranking, **knobs) -> PreparedQuery:
    """A prepared query at Algorithm 1's own ``|D|`` cut (the engine's default
    factor would send fixtures this small straight to the terminal sort)."""
    return PreparedQuery(query, db, ranking, termination_factor=1, **knobs)


# ---------------------------------------------------------------------- #
# Oracles
# ---------------------------------------------------------------------- #
#: The four one-sided comparisons ``w <op> t``, by :func:`one_sided`.
COMPARISONS = ("<", "<=", ">", ">=")


def one_sided(op: str, threshold) -> WeightInterval:
    """The interval of the weights ``w`` with ``w <op> threshold``."""
    strict = not op.endswith("=")
    if op.startswith("<"):
        return WeightInterval(high=threshold, high_strict=strict)
    return WeightInterval(low=threshold, low_strict=strict)


def brute_force_weights(query: JoinQuery, db: Database, ranking) -> list:
    """All answer weights, sorted ascending (nested-loop enumeration)."""
    answers = query.answers_brute_force(db)
    weights = [ranking.weight_of(answer) for answer in answers]
    weights.sort()
    return weights


def quantile_target(phi: float, total: int) -> int:
    """The 0-based target index the library uses (``⌊φ·N⌋`` clamped)."""
    return min(total - 1, max(0, int(math.floor(phi * total))))


def assert_valid_quantile(query, db, ranking, result, phi) -> None:
    """Check that ``result`` is an exact φ-quantile of ``Q(D)`` under ``ranking``.

    Validity: the answer must be a genuine query answer, the target index
    must fall within the tie range of its weight in the sorted weight list,
    and the weight is bit for bit the returned answer's own (the tie
    contract: ``0.0`` and ``-0.0`` tie, but an answer weighing ``-0.0`` is
    not reported as ``0.0``).
    """
    assert query.satisfies(result.assignment, db), (
        f"returned assignment {result.assignment} is not a query answer"
    )
    own = ranking.weight_of(result.assignment)
    assert repr(result.weight) == repr(own), (
        f"reported weight {result.weight!r} but the answer weighs {own!r}"
    )
    weights = brute_force_weights(query, db, ranking)
    total = len(weights)
    assert result.total_answers == total
    target = quantile_target(phi, total)
    below = sum(1 for w in weights if w < result.weight)
    at_most = sum(1 for w in weights if w <= result.weight)
    assert below <= target <= at_most - 1, (
        f"weight {result.weight} occupies ranks [{below}, {at_most - 1}] "
        f"but the target index is {target} (phi={phi}, N={total})"
    )


def rank_error(query, db, ranking, result, phi) -> float:
    """Observed relative rank error of a (possibly approximate) result."""
    weights = brute_force_weights(query, db, ranking)
    total = len(weights)
    target = quantile_target(phi, total)
    below = sum(1 for w in weights if w < result.weight)
    at_most = sum(1 for w in weights if w <= result.weight)
    if below <= target <= at_most - 1:
        return 0.0
    distance = below - target if target < below else target - (at_most - 1)
    return distance / total


# ---------------------------------------------------------------------- #
# Differential-test helpers (whole-column passes against their references)
# ---------------------------------------------------------------------- #
# 0, 0.0 and -0.0 hash alike (they join) but are different objects with
# different reprs; 2 and 2.0 likewise — so "same value" is not enough, the
# columns must carry the very object the reference would have put in the dict.
VALUES = [0, 0.0, -0.0, 1, 2, 2.0, -1.5, 0.5]


#: The rankings :func:`join_instances` draws from; ``sum*`` are the SUM ones.
RANKING_KINDS = ("sum", "sum-custom", "sum-typed", "min", "max", "lex")


@st.composite
def join_instances(draw, values=VALUES, kinds=RANKING_KINDS, min_rows=0):
    """A random acyclic join (path / star / hierarchy, 2-5 atoms) over tiny,
    duplicate-heavy relations of at least ``min_rows`` rows — dangling rows
    and empty joins included — optionally with a cartesian edge, an
    ``R(x, x)`` atom and a self-join, and a ranking of one of ``kinds``."""
    value = st.sampled_from(values)
    rows = st.lists(st.tuples(value, value), min_size=min_rows, max_size=8)
    shape = draw(st.sampled_from(["path", "star", "hierarchy"]))
    atoms = [("R0", ("v0", "v1"))]
    for i in range(1, draw(st.integers(1, 3)) + 1):
        if shape == "path":
            shared = f"v{i}"
        elif shape == "star":
            shared = "v0"
        else:
            shared = draw(st.sampled_from([v for _, pair in atoms for v in pair]))
        atoms.append((f"R{i}", (shared, f"v{i + 1}")))
    if draw(st.booleans()):  # self-join: two atoms over one relation
        atoms[1] = ("R0", atoms[1][1])
    if draw(st.booleans()):  # repeated variable inside one atom
        atoms.append(("D", ("v1", "v1")))
    relations = [
        Relation(name, ("a0", "a1"), draw(rows))
        for name in sorted({name for name, _ in atoms})
    ]
    if len(atoms) < 5 and draw(st.booleans()):  # cartesian edge
        atoms.append(("C", ("c",)))
        singles = draw(st.lists(value, min_size=min_rows, max_size=3))
        relations.append(Relation("C", ("a0",), [(single,) for single in singles]))
    query = JoinQuery([Atom(name, variables) for name, variables in atoms])
    db = Database(relations)
    weighted = draw(
        st.lists(st.sampled_from(sorted(query.variables)), min_size=1, unique=True)
    )
    kind = draw(st.sampled_from(kinds))
    ranking = {
        "sum": lambda: SumRanking(weighted),
        "sum-custom": lambda: SumRanking(weighted, {weighted[0]: lambda v: 1 - 2.5 * v}),
        # Tells 0 from 0.0 from -0.0: which node's object a variable takes shows.
        "sum-typed": lambda: SumRanking(weighted, {weighted[0]: lambda v: len(repr(v))}),
        "min": lambda: MinRanking(weighted),
        "max": lambda: MaxRanking(weighted),
        "lex": lambda: LexRanking(weighted),
    }[kind]()
    return query, db, ranking


@st.composite
def pivoting_joins(draw, values=VALUES):
    """A 3-arm star ``R0(v0, v1), R1(v0, v2), R2(v0, v3)`` of 10 rows a
    relation whose hub takes one or two of ``values`` (so 0 / 0.0 / False
    still meet) and whose arms add 0..7 to them: hundreds of answers over 30
    rows, enough that a SUM pivots at Algorithm 1's own ``|D|`` cut.  A star,
    so a pair of arms covering a SUM has the third below its root: the cover
    counts multiply a non-trivial ``up``."""
    hub = st.sampled_from(draw(st.lists(st.sampled_from(values), min_size=1, max_size=2)))
    arm = st.sampled_from([*values, *range(8)])
    rows = st.lists(st.tuples(hub, arm), min_size=10, max_size=10)
    relations = [Relation(f"R{i}", ("a0", "a1"), draw(rows)) for i in range(3)]
    query = JoinQuery([Atom(f"R{i}", ("v0", f"v{i + 1}")) for i in range(3)])
    return query, Database(relations)


def fanout_instance():
    """30 x 30 rows on one join key and a third level: 900, then 2700."""
    query = JoinQuery(
        [Atom("R", ("x", "k")), Atom("S", ("k", "y")), Atom("T", ("k", "z"))]
    )
    db = Database(
        [
            Relation("R", ("a", "b"), [(i, 0) for i in range(30)]),
            Relation("S", ("a", "b"), [(0, i) for i in range(30)]),
            Relation("T", ("a", "b"), [(0, i) for i in range(3)]),
        ]
    )
    return query, db, SumRanking(["x", "y"])


@contextmanager
def at_checkpoint(name, occurrence, action):
    """Run ``action`` right before the given occurrence of a checkpoint (the
    fault hook fires before the ambient context checks its limits)."""
    seen = 0

    def hook(observed):
        nonlocal seen
        if observed == name:
            seen += 1
            if seen == occurrence:
                action()

    previous = set_fault_hook(hook)
    try:
        yield
    finally:
        set_fault_hook(previous)
