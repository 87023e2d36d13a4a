"""repro: Quantile Join Queries — efficient computation of quantiles over joins.

A from-scratch Python reproduction of Tziavelis, Carmeli, Gatterbauer,
Kimelfeld, and Riedewald, *"Efficient Computation of Quantiles over Joins"*
(PODS 2023).  The library answers φ-quantile queries over the answers of an
acyclic join query without materializing the join, using the paper's
divide-and-conquer pivoting framework with ranking-specific trimmings, and
provides deterministic and randomized approximation schemes for the
conditionally intractable SUM cases.

The primary entry point is the prepared-query engine: an :class:`Engine`
owns a database and hands out :class:`PreparedQuery` objects that pay the
paper's linear-time preprocessing (canonical rewrite, join tree, semijoin
reduction, answer count, strategy plan) exactly once, then answer any number
of quantile/selection calls against the cached state.

Quick start
-----------
>>> from repro import Database, Engine, Relation
>>> db = Database([
...     Relation("R", ("x1", "x2"), [(i, i % 5) for i in range(20)]),
...     Relation("S", ("x2", "x3"), [(i % 5, i) for i in range(20)]),
... ])
>>> engine = Engine(db)
>>> pq = engine.prepare("R(x1, x2), S(x2, x3)", "sum(x1, x2, x3)")
>>> pq.count()
80
>>> [r.exact for r in pq.quantiles([0.25, 0.5, 0.75])]
[True, True, True]

For a single answer, ``Engine(db).quantile(query, ranking, 0.5)`` prepares
and executes in one call.
"""

from repro.core.result import IterationStats, QuantileResult
from repro.engine import Engine, PreparedQuery, SolverPlan
from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import (
    BudgetExceededError,
    CyclicQueryError,
    DegradedResultWarning,
    EmptyResultError,
    ExecutionCancelledError,
    IntractableQueryError,
    QueryError,
    RankingError,
    ReproError,
    SchemaError,
    SolverError,
    TrimmingError,
    ValidationError,
)
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.parser import parse_atom, parse_join_query, parse_ranking
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken, ExecutionContext

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data
    "Relation",
    "Database",
    # queries
    "Atom",
    "JoinQuery",
    "parse_atom",
    "parse_join_query",
    "parse_ranking",
    # rankings
    "SumRanking",
    "MinRanking",
    "MaxRanking",
    "LexRanking",
    # engine
    "Engine",
    "PreparedQuery",
    # execution guardrails
    "ExecutionContext",
    "CancellationToken",
    # results
    "SolverPlan",
    "QuantileResult",
    "IterationStats",
    # errors
    "ReproError",
    "SchemaError",
    "QueryError",
    "CyclicQueryError",
    "EmptyResultError",
    "RankingError",
    "TrimmingError",
    "IntractableQueryError",
    "SolverError",
    "ValidationError",
    "BudgetExceededError",
    "ExecutionCancelledError",
    "DegradedResultWarning",
]
