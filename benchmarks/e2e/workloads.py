"""The four benchmark workloads and their seeded input rows.

The program under test only ever sees the rows generated here.  The
generators are the benchmark's own (not ``repro.workloads``) for two reasons:
a change under ``src/`` must not be able to move the inputs, and the join
*shape* is pinned — every join key has exactly ``n / domain`` rows and rows
are distinct — so the answer count is identical for every seed.  The seed
only permutes which key a row carries and draws the weighted values, which
keeps the spread across seeds close to the machine's own noise.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

#: The φ batch: ``0.5`` is asked first, then the other 18 ascending.
PHI19 = [(i + 1) / 20 for i in range(19)]
PHI_FIRST = 0.5
PHI_REST = [phi for phi in PHI19 if phi != PHI_FIRST]
PHI_ORDER = [PHI_FIRST] + PHI_REST

VALUE_DOMAIN = 1000

PATH_QUERY = "R1(x1, x2), R2(x2, x3), R3(x3, x4)"
STAR_QUERY = "R1(x0, x1), R2(x0, x2), R3(x0, x3)"

Rows = dict[str, tuple[tuple[str, ...], list[tuple[int, int]]]]


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: its inputs and how the program is driven."""

    name: str
    why: str
    kind: str  # "batch" (in-process engine) or "service" (HTTP subprocess)
    shape: str  # "path" or "star"
    n: int  # rows per relation
    domain: int  # join-key domain; every key has exactly n / domain rows
    query: str
    rankings: tuple[str, ...]  # batch workloads use exactly one
    parallel: int | None = None

    def sizes(self) -> dict[str, int]:
        return {"n": self.n, "domain": self.domain}


SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "path_sum_cold",
            "3-path, partial SUM, serial: terminal evaluate+sort and pivot "
            "selection dominate a cold 19-phi batch, trims and counts are minor",
            "batch", "path", 600, 30, PATH_QUERY, ("sum(x1, x2, x3)",),
        ),
        WorkloadSpec(
            "star_min_cold",
            "3-arm star, MIN, serial: about twice the pivot iterations per phi, "
            "trim/tree-build/count heavy; a terminal-only gain moves this less",
            "batch", "star", 600, 20, STAR_QUERY, ("min(x1, x2, x3)",),
        ),
        WorkloadSpec(
            "path_sum_sharded",
            "path_sum_cold's rows through parallel=2 worker processes: the "
            "duplicated merger/worker loop; serial-only gains do not show here",
            "batch", "path", 600, 30, PATH_QUERY, ("sum(x1, x2, x3)",),
            parallel=2,
        ),
        WorkloadSpec(
            "service_warm",
            "serve subprocess over the path rows, 2 closed-loop clients on "
            "cache hits: HTTP, admission, coalescing, executor hop and JSON "
            "do the work, the engine almost none",
            "service", "path", 600, 30, PATH_QUERY,
            ("sum(x1, x2, x3)", "max(x1, x4)", "lex(x1, x4)"),
        ),
    )
}

#: ``--smoke`` sizes: same shapes, small enough for the tier-1 smoke test.
SMOKE_SIZES = {"path": (120, 12), "star": (120, 6)}


def atoms_of(query: str) -> list[tuple[str, tuple[str, ...]]]:
    """``"R(a, b), S(b, c)"`` → ``[("R", ("a", "b")), ("S", ("b", "c"))]``."""
    atoms = []
    for chunk in query.replace(" ", "").rstrip(")").split("),"):
        name, _, variables = chunk.partition("(")
        atoms.append((name, tuple(variables.split(","))))
    return atoms


def _keyed_values(rng: random.Random, n: int, domain: int) -> list[tuple[int, int]]:
    """``n`` distinct (key, value) pairs, exactly ``n / domain`` per key."""
    pairs = [
        (key, value)
        for key in range(domain)
        for value in rng.sample(range(VALUE_DOMAIN), n // domain)
    ]
    rng.shuffle(pairs)
    return pairs


def _key_pairs(rng: random.Random, n: int, domain: int) -> list[tuple[int, int]]:
    """``n`` distinct (left key, right key) pairs, ``n / domain`` per key
    on both sides: a regular bipartite graph under two seeded relabelings."""
    fanout = n // domain
    left = rng.sample(range(domain), domain)
    right = rng.sample(range(domain), domain)
    pairs = [
        (left[a], right[(a + j) % domain])
        for a in range(domain)
        for j in range(fanout)
    ]
    rng.shuffle(pairs)
    return pairs


def generate_rows(spec: WorkloadSpec, seed: int) -> Rows:
    """The raw rows of ``spec`` for ``seed``: ``{relation: (schema, rows)}``."""
    fanout = spec.n // spec.domain
    if spec.n % spec.domain or (spec.shape == "path" and fanout > spec.domain):
        raise ValueError(f"{spec.name}: n must be a multiple of domain (path: fanout <= domain)")
    rng = random.Random(seed)
    atoms = atoms_of(spec.query)
    rows: Rows = {}
    if spec.shape == "star":
        for name, schema in atoms:
            rows[name] = (schema, _keyed_values(rng, spec.n, spec.domain))
        return rows
    (r1, s1), (r2, s2), (r3, s3) = atoms
    rows[r1] = (s1, [(v, k) for k, v in _keyed_values(rng, spec.n, spec.domain)])
    rows[r2] = (s2, _key_pairs(rng, spec.n, spec.domain))
    rows[r3] = (s3, _keyed_values(rng, spec.n, spec.domain))
    return rows


def write_csv_database(rows: Rows, directory: Path) -> None:
    """One CSV per relation, header row = attribute names (the CLI's format)."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, (schema, tuples) in rows.items():
        with (directory / f"{name}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(schema)
            writer.writerows(tuples)
