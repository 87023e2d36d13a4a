"""Unit tests for canonicalization (self-join elimination) and the candidate weight interval."""

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.query.rewrite import atom_relation_name, canonicalize, ensure_canonical, is_canonical


class TestCanonicalize:
    def make(self):
        query = JoinQuery([Atom("R", ("x", "y")), Atom("R", ("y", "z"))])
        db = Database([Relation("R", ("a", "b"), [(1, 2), (2, 3), (2, 4)])])
        return query, db

    def test_self_join_gets_fresh_relations(self):
        query, db = self.make()
        new_query, new_db = canonicalize(query, db)
        assert new_query.is_self_join_free
        assert len(new_db) == 2
        assert new_query[0].relation == atom_relation_name("R", 0)
        assert new_query[1].relation == atom_relation_name("R", 1)

    def test_answers_preserved(self):
        query, db = self.make()
        new_query, new_db = canonicalize(query, db)
        original = {tuple(sorted(a.items())) for a in query.answers_brute_force(db)}
        rewritten = {tuple(sorted(a.items())) for a in new_query.answers_brute_force(new_db)}
        assert original == rewritten

    def test_repeated_variable_resolved(self):
        query = JoinQuery([Atom("R", ("x", "x", "y"))])
        db = Database([Relation("R", ("a", "b", "c"), [(1, 1, 5), (1, 2, 6), (3, 3, 7)])])
        new_query, new_db = canonicalize(query, db)
        atom = new_query[0]
        assert atom.variables == ("x", "y")
        assert sorted(new_db[atom.relation].rows) == [(1, 5), (3, 7)]

    def test_schema_renamed_to_variables(self):
        query = JoinQuery([Atom("R", ("x", "y"))])
        db = Database([Relation("R", ("colA", "colB"), [(1, 2)])])
        new_query, new_db = canonicalize(query, db)
        assert new_db[new_query[0].relation].schema == ("x", "y")

    def test_is_canonical_and_ensure_idempotent(self):
        query, db = self.make()
        assert not is_canonical(query, db)
        new_query, new_db = ensure_canonical(query, db)
        assert is_canonical(new_query, new_db)
        again_query, again_db = ensure_canonical(new_query, new_db)
        assert again_query is new_query
        assert again_db is new_db


class TestWeightInterval:
    def test_unbounded(self):
        interval = WeightInterval()
        assert interval.is_unbounded
        assert interval.contains(-1e9) and interval.contains(1e9)

    def test_open_interval(self):
        interval = WeightInterval(low=1, high=5)
        assert not interval.contains(1)
        assert interval.contains(3)
        assert not interval.contains(5)

    def test_closed_interval(self):
        interval = WeightInterval(low=1, high=5, low_strict=False, high_strict=False)
        assert interval.contains(1) and interval.contains(5)

    def test_with_bounds(self):
        interval = WeightInterval()
        narrowed = interval.with_high(10).with_low(2)
        assert narrowed.contains(5)
        assert not narrowed.contains(11)
        assert not narrowed.contains(2)

    def test_str(self):
        assert str(WeightInterval(low=1, high=2)) == "(1, 2)"
        assert "-inf" in str(WeightInterval())
