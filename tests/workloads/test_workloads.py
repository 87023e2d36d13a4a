"""Workload generators: structure, determinism, and solver compatibility."""

import pytest

from repro.joins.counting import count_answers
from repro.query.classify import classify_sum
from repro.query.rewrite import ensure_canonical
from repro.ranking.sum import SumRanking
from repro.workloads.generators import random_acyclic_workload, zipf_values
from repro.workloads.hierarchy import figure1_workload, hierarchy_workload
from repro.workloads.path import path_query, path_workload
from repro.workloads.social import social_network_workload
from repro.workloads.star import star_query, star_workload

import random


class TestZipfValues:
    def test_range_and_count(self):
        values = zipf_values(500, 10, 1.2, random.Random(0))
        assert len(values) == 500
        assert all(0 <= v < 10 for v in values)

    def test_zero_skew_is_uniformish(self):
        values = zipf_values(5000, 10, 0.0, random.Random(0))
        counts = [values.count(i) for i in range(10)]
        assert max(counts) < 3 * min(counts)

    def test_high_skew_concentrates_mass(self):
        values = zipf_values(5000, 10, 2.0, random.Random(0))
        assert values.count(0) > len(values) * 0.4

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            zipf_values(10, 0, 1.0, random.Random(0))


#: Every seeded generator in ``repro.workloads`` — including a ``skew > 0``
#: case, the only way into :func:`zipf_values`' inverse-CDF branch.
GENERATORS = {
    "path": lambda seed: path_workload(3, 30, join_domain=5, seed=seed),
    "path-skewed": lambda seed: path_workload(3, 30, join_domain=5, skew=1.2, seed=seed),
    "star": lambda seed: star_workload(3, 30, hub_domain=5, seed=seed),
    "social-network": lambda seed: social_network_workload(20, 40, 40, 10, seed=seed),
    "hierarchy": lambda seed: hierarchy_workload(30, 5, seed=seed),
    "random-acyclic": lambda seed: random_acyclic_workload(4, 30, 6, SumRanking, seed=seed),
}


@pytest.mark.parametrize("generator", GENERATORS)
def test_deterministic_given_seed(generator):
    """Same seed, same instance; another seed, another instance.

    This is the whole protection against a generator drawing from the
    module-global ``random`` state (a benchmark run that cannot be replayed):
    checked by behaviour, for every generator.
    """

    def instance(seed):
        workload = GENERATORS[generator](seed)
        return workload.query, {r.name: list(r.rows) for r in workload.db}

    assert instance(7) == instance(7)
    assert instance(7) != instance(8)


class TestPathWorkload:
    def test_query_shape(self):
        assert len(path_query(4)) == 4
        assert path_query(4).is_acyclic

    def test_workload_is_consistent(self):
        workload = path_workload(3, 50, join_domain=5, seed=1)
        workload.query.validate_against(workload.db)
        assert workload.database_size == 150
        assert count_answers(*ensure_canonical(workload.query, workload.db)) > 0

    def test_custom_ranking_attached(self):
        ranking = SumRanking(["x1", "x2"])
        workload = path_workload(2, 20, join_domain=4, ranking=ranking, seed=0)
        assert workload.ranking is ranking

    def test_default_ranking_is_full_sum(self):
        workload = path_workload(2, 20, join_domain=4, seed=0)
        assert set(workload.ranking.weighted_variables) == set(workload.query.variables)


class TestStarWorkload:
    def test_query_shape(self):
        query = star_query(4)
        assert len(query) == 4
        assert query.is_acyclic
        assert "x0" in query.variables

    def test_workload(self):
        workload = star_workload(3, 40, hub_domain=4, seed=2)
        workload.query.validate_against(workload.db)
        assert count_answers(*ensure_canonical(workload.query, workload.db)) > 0


class TestSocialWorkload:
    def test_matches_paper_example(self):
        workload = social_network_workload(
            num_admins=20, num_shares=50, num_attends=50, num_events=6, seed=1
        )
        assert {a.relation for a in workload.query} == {"Admin", "Share", "Attend"}
        assert workload.ranking.weighted_variables == ("l2", "l3")
        # The ranking is on the tractable side of the dichotomy.
        assert classify_sum(workload.query, {"l2", "l3"}).is_tractable

    def test_sizes(self):
        workload = social_network_workload(
            num_admins=20, num_shares=50, num_attends=40, num_events=6, seed=1
        )
        assert len(workload.db["Admin"]) == 20
        assert len(workload.db["Share"]) == 50
        assert len(workload.db["Attend"]) == 40


class TestHierarchyWorkloads:
    def test_figure1_has_13_answers(self):
        workload = figure1_workload()
        assert count_answers(workload.query, workload.db) == 13

    def test_random_hierarchy(self):
        workload = hierarchy_workload(30, join_domain=4, seed=3)
        workload.query.validate_against(workload.db)
        assert count_answers(*ensure_canonical(workload.query, workload.db)) >= 0


class TestRandomAcyclicWorkload:
    def test_always_acyclic(self):
        for seed in range(5):
            workload = random_acyclic_workload(
                5, 10, 4, ranking_factory=lambda vs: SumRanking(vs), seed=seed
            )
            assert workload.query.is_acyclic
            workload.query.validate_against(workload.db)

    def test_parameters_recorded(self):
        workload = random_acyclic_workload(
            3, 10, 4, ranking_factory=lambda vs: SumRanking(vs), seed=0
        )
        assert workload.parameters["num_atoms"] == 3
