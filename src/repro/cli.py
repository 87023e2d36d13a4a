"""Command-line interface: quantile queries over CSV data.

Usage (installed as ``python -m repro.cli``)::

    python -m repro.cli \
        --data ./my_database_dir \
        --query "R(x1, x2), S(x2, x3)" \
        --ranking "sum(x1, x3)" \
        --phi 0.25,0.5,0.75

The data directory must contain one CSV file per relation (header row =
attribute names).  Atoms bind relation columns to query variables by
position; the query can be given either as one ``--query`` spec or as
repeated ``--atom`` flags.  The ranking is either a spec such as
``"sum(x1, x3)"`` or the legacy pair ``--ranking sum --weights x1,x3``.

``--phi`` may be repeated and/or comma-separated; multiple φ values run as
one batch over a single prepared query (planning and preprocessing are paid
once), emitting one result record per φ — a JSON list under ``--json``.

The output reports the chosen strategy, the answer weight, and the answer
assignment.

Two subcommands run the same engine as an always-on service::

    python -m repro.cli serve --data name=./db_dir [--port 8321] ...
    python -m repro.cli client --url http://127.0.0.1:8321 --db name \
        --query "R(x1, x2), S(x2, x3)" --ranking "sum(x1, x3)" --phi 0.5

``serve`` starts the long-running quantile service (one engine per
registered database, shared prepared queries, admission control, graceful
drain on SIGTERM/SIGINT); ``client`` sends one request and maps the HTTP
outcome back onto the CLI's exit codes (see README § Service).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any

from repro.engine import STRATEGIES, Engine
from repro.data.io import load_database_csv
from repro.exceptions import (
    BudgetExceededError,
    ExecutionCancelledError,
    ReproError,
)
from repro.parallel.planner import resolve_shard_count
from repro.runtime.policy import DEGRADATION_POLICIES
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.parser import parse_atom as _parse_atom_spec
from repro.query.parser import parse_ranking
from repro.query.parser import RANKING_KINDS, ranking_class
from repro.ranking.base import RankingFunction

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.result import QuantileResult
    from repro.engine import SolverPlan


def parse_atom(text: str) -> Atom:
    """Parse ``"R(x, y)"`` into an :class:`Atom` (argparse-friendly errors)."""
    try:
        return _parse_atom_spec(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def parse_query_spec(text: str) -> JoinQuery:
    """Parse a full ``--query`` spec (argparse-friendly errors)."""
    try:
        return JoinQuery.parse(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def parse_parallel(text: str) -> int | str:
    """Parse ``--parallel``: a positive shard count or ``auto``."""
    try:
        value: int | str = int(text)
    except ValueError:
        value = text
    try:
        resolve_shard_count(value)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return value


def parse_phi_list(text: str) -> list[float]:
    """Parse one ``--phi`` occurrence: a float or a comma-separated list."""
    phis: list[float] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise argparse.ArgumentTypeError(f"empty phi value in {text!r}")
        try:
            phi = float(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"phi value {part!r} is not a number")
        if not 0.0 <= phi <= 1.0:
            raise argparse.ArgumentTypeError(f"phi must be in [0, 1], got {part}")
        phis.append(phi)
    return phis


def build_ranking(kind: str, weighted: list[str]) -> RankingFunction:
    """Instantiate the requested ranking over the given variables.

    Instantiates the class directly (not via a spec round-trip) so the legacy
    ``--ranking kind --weights ...`` path keeps accepting any variable names
    the relations use.
    """
    return ranking_class(kind)(weighted)


def resolve_ranking(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RankingFunction:
    """Build the ranking from ``--ranking`` (+ optional ``--weights``)."""
    if "(" in args.ranking:
        if args.weights:
            parser.error("--weights cannot be combined with a ranking spec like 'sum(x1, x3)'")
        return parse_ranking(args.ranking)
    if args.ranking.lower() not in RANKING_KINDS:
        parser.error(
            f"unknown ranking {args.ranking!r}; expected one of {sorted(RANKING_KINDS)} "
            "or a spec like 'sum(x1, x3)'"
        )
    if not args.weights:
        parser.error(f"--ranking {args.ranking} requires --weights (or use a spec form)")
    weighted = [v.strip() for v in args.weights.split(",") if v.strip()]
    return build_ranking(args.ranking, weighted)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Answer quantile join queries over CSV relations.",
        epilog="subcommands: 'serve' runs the always-on quantile service; "
        "'client' queries a running service "
        "(python -m repro.cli serve --help / client --help).",
    )
    parser.add_argument(
        "--data", required=True,
        help="directory containing one CSV file per relation (header = attributes)",
    )
    parser.add_argument(
        "--query", type=parse_query_spec, default=None,
        help='full query spec, e.g. "R(x1, x2), S(x2, x3)" (alternative to --atom)',
    )
    parser.add_argument(
        "--atom", action="append", type=parse_atom, dest="atoms",
        help='query atom, e.g. "R(x1, x2)"; repeat for every atom',
    )
    parser.add_argument(
        "--ranking", default="sum",
        help="ranking function: sum/min/max/lex with --weights, "
        'or a spec such as "sum(x1, x3)" (default: sum)',
    )
    parser.add_argument(
        "--weights", default=None,
        help="comma-separated weighted variables, in priority order for lex",
    )
    parser.add_argument(
        "--phi", action="append", type=parse_phi_list, dest="phis", default=None,
        help="quantile position(s) in [0, 1]; repeat the flag or separate "
        "values with commas to run a batch over one prepared query",
    )
    parser.add_argument("--index", type=int, default=None, help="absolute 0-based answer index")
    parser.add_argument("--epsilon", type=float, default=None, help="allowed position error")
    parser.add_argument(
        "--strategy", default="auto", choices=list(STRATEGIES),
        help="force a solution strategy (default: auto)",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for the sampling strategy")
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock budget in seconds per execution (exit code 3 when "
        "exceeded under --on-budget error)",
    )
    parser.add_argument(
        "--max-rows", type=int, default=None,
        help="budget on rows processed per execution (work/memory proxy)",
    )
    parser.add_argument(
        "--on-budget", default="error", choices=list(DEGRADATION_POLICIES),
        help="degradation policy when a budget trips: error out, retry once "
        "with approx/sampling/materialize, or walk the full degrade ladder "
        "(default: error)",
    )
    parser.add_argument(
        "--parallel", type=parse_parallel, default=None,
        help="shard the exact pivoting path across K worker processes "
        "(a positive integer, or 'auto' for min(4, cores); default: serial)",
    )
    parser.add_argument("--count-only", action="store_true", help="only print |Q(D)| and exit")
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


def _result_record(
    result: QuantileResult,
    plan: SolverPlan,
    phi: float | None,
    shards: int | None = None,
) -> dict[str, Any]:
    record: dict[str, Any] = {
        "strategy": result.strategy,
        "plan_reason": plan.reason,
        "exact": result.exact,
        "epsilon": result.epsilon,
        "total_answers": result.total_answers,
        "target_index": result.target_index,
        "weight": result.weight,
        "assignment": result.assignment,
        "pivot_iterations": result.iterations,
        "degraded": result.degraded,
        "degradation": result.degradation,
        "shards": shards,
    }
    if phi is not None:
        record = {"phi": phi, **record}
    return record


def _print_record(record: dict[str, Any]) -> None:
    for key, value in record.items():
        print(f"{key:16s}: {value}")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli serve",
        description="Run the always-on quantile service over CSV databases.",
    )
    parser.add_argument(
        "--data", action="append", required=True, dest="databases",
        help="database to serve, as 'name=csv_dir' (repeat to serve several); "
        "a bare directory registers under its basename",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321, help="bind port, 0 = ephemeral (default: 8321)")
    parser.add_argument(
        "--max-inflight", type=int, default=4,
        help="concurrent executions before requests queue (default: 4)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=16,
        help="queued requests before new arrivals are shed with 429 (default: 16)",
    )
    parser.add_argument(
        "--queue-timeout", type=float, default=2.0,
        help="seconds a request may wait for a slot before being shed (default: 2.0)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="default wall-clock budget per execution (requests may override)",
    )
    parser.add_argument(
        "--max-rows", type=int, default=None,
        help="default row budget per execution (requests may override)",
    )
    parser.add_argument(
        "--on-budget", default="error", choices=list(DEGRADATION_POLICIES),
        help="default degradation policy for tripped budgets (default: error)",
    )
    parser.add_argument(
        "--prepared-budget-mb", type=int, default=256,
        help="accounting-byte budget (MiB) for the prepared-query LRU (default: 256)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="seconds to wait for in-flight requests at shutdown before "
        "cancelling them cooperatively (default: 5.0)",
    )
    return parser


def serve_main(argv: list[str]) -> int:
    """The ``serve`` subcommand: run the service until SIGTERM/SIGINT.

    Exit codes: 0 = clean drain (every request finished or cancelled
    cooperatively), 5 = a connection had to be force-killed at shutdown,
    2 = startup error (bad data directory or guardrail default, bind failure).
    """
    import asyncio
    import os
    import signal

    from repro.kernels import backend_name
    from repro.service import QuantileService, ServiceConfig

    args = build_serve_parser().parse_args(argv)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        default_timeout=args.timeout,
        default_max_rows=args.max_rows,
        default_on_budget=args.on_budget,
        prepared_budget_bytes=args.prepared_budget_mb * 1024 * 1024,
        drain_grace=args.drain_grace,
    )
    try:
        service = QuantileService(config)
        for spec in args.databases:
            name, _, directory = spec.partition("=")
            if not directory:
                name, directory = os.path.basename(os.path.normpath(spec)), spec
            service.pool.register(name, load_database_csv(directory))
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def serve() -> int:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, service.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await service.start()
        print(
            f"serving {sorted(service.pool.databases())} on "
            f"http://{service.host}:{service.port} "
            f"(kernel backend: {backend_name()})",
            file=sys.stderr,
        )
        return await service.run_until_shutdown()

    try:
        return asyncio.run(serve())
    except OSError as error:  # bind failure
        print(f"error: {error}", file=sys.stderr)
        return 2


def build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli client",
        description="Send one request to a running quantile service.",
    )
    parser.add_argument("--url", required=True, help="service URL, e.g. http://127.0.0.1:8321")
    parser.add_argument("--db", default=None, help="registered database name")
    parser.add_argument("--query", default=None, help='query spec, e.g. "R(x1, x2), S(x2, x3)"')
    parser.add_argument("--ranking", default=None, help='ranking spec, e.g. "sum(x1, x3)"')
    parser.add_argument(
        "--phi", action="append", type=parse_phi_list, dest="phis", default=None,
        help="quantile position(s); repeat or comma-separate for a batch",
    )
    parser.add_argument("--index", type=int, default=None, help="absolute 0-based answer index")
    parser.add_argument("--epsilon", type=float, default=None, help="allowed position error")
    parser.add_argument("--strategy", default=None, help="force a solution strategy")
    parser.add_argument("--seed", type=int, default=None, help="seed for the sampling strategy")
    parser.add_argument("--timeout", type=float, default=None, help="per-execution wall-clock budget")
    parser.add_argument("--max-rows", type=int, default=None, help="per-execution row budget")
    parser.add_argument("--on-budget", default=None, help="degradation policy override")
    parser.add_argument(
        "--parallel", type=parse_parallel, default=None,
        help="shard the exact pivoting path across K worker processes "
        "(a positive integer or 'auto')",
    )
    parser.add_argument("--stats", action="store_true", help="print service stats and exit")
    parser.add_argument("--health", action="store_true", help="print health/readiness and exit")
    parser.add_argument("--shutdown", action="store_true", help="ask the service to drain and exit")
    return parser


def client_main(argv: list[str]) -> int:
    """The ``client`` subcommand: one request, JSON out, engine exit codes.

    Exit codes mirror the one-shot CLI where the failure mode matches:
    0 = answered, 2 = request/engine error, 3 = budget exhausted (504),
    4 = cancelled by a server drain (503), 6 = shed by admission control
    (429 — retry after the printed hint).
    """
    parser = build_client_parser()
    args = parser.parse_args(argv)

    from repro.service.client import ServiceClient

    client = ServiceClient.from_url(args.url)
    try:
        if args.health:
            health, ready = client.health(), client.ready()
            print(json.dumps({"health": health.payload, "ready": ready.payload}, indent=2))
            return 0 if health.ok and ready.ok else 2
        if args.stats:
            print(json.dumps(client.stats(), default=str, indent=2))
            return 0
        if args.shutdown:
            response = client.shutdown()
            print(json.dumps(response.payload, indent=2))
            return 0 if response.status in (200, 202) else 2
        if not (args.db and args.query and args.ranking):
            parser.error("--db, --query, and --ranking are required for a query")
        phis = [phi for group in (args.phis or []) for phi in group] or None
        if (phis is None) == (args.index is None):
            parser.error("provide exactly one of --phi and --index")
        response = client.query(
            args.db, args.query, args.ranking,
            phis=phis, index=args.index,
            epsilon=args.epsilon, strategy=args.strategy, seed=args.seed,
            timeout=args.timeout, max_rows=args.max_rows, on_budget=args.on_budget,
            parallel=args.parallel,
        )
    except OSError as error:
        print(f"error: cannot reach service at {args.url}: {error}", file=sys.stderr)
        return 2
    print(json.dumps(response.payload, default=str, indent=2))
    if response.ok:
        return 0
    if response.status == 429:
        return 6
    if response.status == 504:
        return 3
    if response.status == 503 and response.payload.get("cancelled"):
        return 4
    return 2


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        return client_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if (args.query is None) == (not args.atoms):
        parser.error("provide the query via exactly one of --query and --atom")
    phis: list[float] = [phi for group in (args.phis or []) for phi in group]
    if not args.count_only and (not phis) == (args.index is None):
        parser.error("provide exactly one of --phi and --index (or --count-only)")
    if phis and args.index is not None:
        parser.error("provide exactly one of --phi and --index (or --count-only)")

    try:
        db = load_database_csv(args.data)
        query = args.query if args.query is not None else JoinQuery(args.atoms)
        engine = Engine(db)
        try:
            if args.count_only:
                # Counting needs no ranking; don't force --weights for it.
                payload: object = {"answers": engine.count(query), "database_size": db.size}
            else:
                ranking = resolve_ranking(parser, args)
                prepared = engine.prepare(
                    query, ranking,
                    epsilon=args.epsilon, strategy=args.strategy, seed=args.seed,
                    timeout=args.timeout, max_rows=args.max_rows,
                    on_budget=args.on_budget, parallel=args.parallel,
                    eager=False,
                )
                plan = prepared.plan()
                if phis:
                    results = prepared.quantiles(phis)
                    # Shard count is read after execution (the parallel session
                    # is built lazily on the first exact-pivot call).
                    shards = prepared.shards
                    records = [
                        _result_record(result, plan, phi, shards)
                        for phi, result in zip(phis, results)
                    ]
                    payload = records if len(records) > 1 else records[0]
                else:
                    result = prepared.selection(args.index)
                    payload = _result_record(result, plan, None, prepared.shards)
        finally:
            # Shut the shard workers down here: left to the interpreter's
            # exit handlers they end in "Bad file descriptor" noise on stderr.
            engine.clear()
    except BudgetExceededError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except ExecutionCancelledError as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(payload, default=str, indent=2))
    elif isinstance(payload, list):
        for position, record in enumerate(payload):
            if position:
                print()
            _print_record(record)
    else:
        _print_record(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
