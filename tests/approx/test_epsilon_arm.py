"""The ε arm of the differential lattice: approx-pivot stays inside ε·|Q(D)| ranks.

Lemma 3.6 / Theorem 6.2: with an ε-lossy trimmer, Algorithm 1 returns an
answer whose rank is within ε·|Q(D)| of the target.  Over random joins
(``tests.conftest.join_instances``) under SUM, for ε ∈ {0.05, 0.1, 0.3},
both termination factors, every φ of a 0.05 grid and the selections 0, N/3
and N − 1, the rank range of the returned weight (its first and last
position among the materialized oracle's sorted weights) must come within
ε·N of ``target_index``.

Not covered here:

* ``sum-typed`` rankings: a weight function that tells ``0`` from ``0.0``
  stalls approx-pivot (the strict xfail in ``tests/core/test_float_sums.py``);
* ``sampling``: its bound holds only with probability 1 − δ (δ = 0.05), and
  500 examples found a miss of one rank on 16 answers at ε = 0.05, so it
  needs a stated failure budget before it joins the lattice.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from hypothesis import given, settings, strategies as st

from repro.baselines.materialize import answer_weights
from repro.engine import PreparedQuery
from tests.conftest import join_instances

PHIS = [i / 20 for i in range(21)]


@settings(max_examples=100, deadline=None)
@given(
    join_instances(kinds=("sum", "sum-custom")),
    st.sampled_from([0.05, 0.1, 0.3]),
    st.sampled_from([1, 12]),
)
def test_every_answer_lands_within_epsilon_ranks(instance, epsilon, factor):
    query, db, ranking = instance
    weights = answer_weights(query, db, ranking)
    total = len(weights)
    if not total:
        return
    prepared = PreparedQuery(
        query, db, ranking, strategy="approx-pivot", epsilon=epsilon,
        termination_factor=factor,
    )
    results = prepared.quantiles(PHIS)
    results += [prepared.selection(index) for index in (0, total // 3, total - 1)]
    for result in results:
        first = bisect_left(weights, result.weight)
        last = bisect_right(weights, result.weight) - 1
        target = result.target_index
        assert first <= last, f"{result.weight!r} is no answer's weight"
        assert max(first - target, target - last, 0) <= epsilon * total, (
            f"ranks [{first}, {last}] of {total} vs target {target} at ε = {epsilon}"
        )
