"""Shared trimming helpers: weight-bound filtering and the union-of-partitions construction."""

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.ranking.minmax import MaxRanking
from repro.trim.base import TrimResult, fresh_variable
from repro.trim.filters import filter_variables, union_partitions

#: The variable -> weight function the bounds are on (its own memo tag).
WEIGHT = MaxRanking(["x", "y", "z"]).variable_weight

EQUALS_1 = WeightInterval(1, 1, low_strict=False, high_strict=False)
AT_MOST_1 = WeightInterval(high=1, high_strict=False)
ABOVE_1 = WeightInterval(low=1)
EVERYTHING = WeightInterval()


def make():
    query = JoinQuery([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    db = Database(
        [
            Relation("R", ("a", "b"), [(1, 1), (2, 1), (3, 2)]),
            Relation("S", ("a", "b"), [(1, 5), (2, 6), (2, 7)]),
        ]
    )
    return query, db


class TestFilterVariables:
    def test_filters_every_occurrence(self):
        query, db = make()
        new_query, new_db = filter_variables(query, db, {"y": EQUALS_1}, WEIGHT)
        # y occurs in both atoms; both relations are filtered, in row order.
        assert new_db[new_query[0].relation].rows == [(1, 1), (2, 1)]
        assert new_db[new_query[1].relation].rows == [(1, 5)]

    def test_untouched_relations_kept(self):
        canonical_query, canonical_db = ensure_canonical(*make())
        new_query, new_db = filter_variables(
            canonical_query, canonical_db, {"x": ABOVE_1}, WEIGHT
        )
        assert new_db[new_query[0].relation].rows == [(2, 1), (3, 2)]
        # No bound on y or z: S is the very object, not a full-length view.
        assert new_db[new_query[1].relation] is canonical_db[canonical_query[1].relation]

    def test_preserves_answers_of_unrestricted_query(self):
        query, db = make()
        new_query, new_db = filter_variables(query, db, {}, WEIGHT)
        assert len(new_query.answers_brute_force(new_db)) == len(
            query.answers_brute_force(db)
        )

    def test_unbounded_interval_is_no_bound(self):
        canonical_query, canonical_db = ensure_canonical(*make())
        _, new_db = filter_variables(
            canonical_query, canonical_db, {"x": EVERYTHING, "y": EVERYTHING}, WEIGHT
        )
        for relation in canonical_db:
            assert new_db[relation.name] is relation

    def test_empty_run_keeps_the_schema_and_no_row(self):
        query, db = make()
        nothing = WeightInterval(low=7, high=7)  # 7 < w < 7
        beyond = WeightInterval(low=100)
        for bound in (nothing, beyond):
            new_query, new_db = filter_variables(query, db, {"y": bound}, WEIGHT)
            for atom in new_query:
                assert new_db[atom.relation].rows == []
                assert new_db[atom.relation].schema == atom.variables

    def test_bounds_on_two_variables_of_one_atom_intersect(self):
        query, db = make()
        new_query, new_db = filter_variables(
            query, db, {"x": ABOVE_1, "y": AT_MOST_1}, WEIGHT
        )
        assert new_db[new_query[0].relation].rows == [(2, 1)]
        assert new_db[new_query[1].relation].rows == [(1, 5)]


class TestUnionPartitions:
    def test_identifier_added_everywhere(self):
        query, db = make()
        result = union_partitions(query, db, [{"x": AT_MOST_1}, {"x": ABOVE_1}], WEIGHT)
        helper = next(iter(result.helper_variables))
        for atom in result.query:
            assert atom.variables[-1] == helper
        for relation in result.database:
            assert relation.schema[-1] == helper
        # Partition-major, row order inside a part; S is whole in both parts.
        first, second = (result.database[atom.relation] for atom in result.query)
        assert first.rows == [(1, 1, 0), (2, 1, 1), (3, 2, 1)]
        assert second.rows == [(a, b, part) for part in (0, 1) for a, b in db["S"].rows]

    def test_partitions_do_not_mix(self):
        query, db = make()
        result = union_partitions(query, db, [{"x": AT_MOST_1}, {"x": ABOVE_1}], WEIGHT)
        answers = result.query.answers_brute_force(result.database)
        original = query.answers_brute_force(db)
        # The two partitions cover x<=1 and x>1: together all answers, once each.
        assert len(answers) == len(original)

    def test_empty_partition_list(self):
        query, db = make()
        result = union_partitions(query, db, [], WEIGHT)
        assert result.query.answers_brute_force(result.database) == []

    def test_empty_run_leaves_its_partition_out(self):
        query, db = make()
        result = union_partitions(
            query, db, [{"x": WeightInterval(low=100)}, {"x": ABOVE_1}], WEIGHT
        )
        first = result.database[result.query[0].relation]
        assert first.rows == [(2, 1, 1), (3, 2, 1)]

    def test_overlapping_partitions_duplicate_answers(self):
        """Partitions are the caller's responsibility: overlapping conditions
        genuinely duplicate answers (this documents the contract)."""
        query, db = make()
        result = union_partitions(
            query, db, [{"x": EVERYTHING}, {"x": EVERYTHING}], WEIGHT
        )
        assert len(result.query.answers_brute_force(result.database)) == 2 * len(
            query.answers_brute_force(db)
        )

    def test_output_inherits_its_weight_columns(self):
        query, db = make()
        result = union_partitions(query, db, [{"x": AT_MOST_1}, {"x": ABOVE_1}], WEIGHT)
        first = result.database[result.query[0].relation]
        assert first.indexes.known_column_weights(0, "x", WEIGHT) == [1.0, 2.0, 3.0]
        assert first.indexes.known_column_weights(1, "y", WEIGHT) is None


class TestHelpers:
    def test_fresh_variable_avoids_collisions(self):
        query = JoinQuery([Atom("R", ("v", "v_1"))])
        assert fresh_variable(query, "v") == "v_2"
        assert fresh_variable(query, "w") == "w"

    def test_trim_result_merge(self):
        query, db = make()
        first = TrimResult(query, db, helper_variables={"a"})
        second = TrimResult(query, db, helper_variables={"b"}, lossy=True)
        merged = first.merged_with(second)
        assert merged.helper_variables == {"a", "b"}
        assert merged.lossy
