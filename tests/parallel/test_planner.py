"""Shard-planner tests: stable hashing, placement modes, disjoint coverage."""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import ValidationError
from repro.parallel.planner import ShardPlanner, resolve_shard_count, stable_shard_hash
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.workloads.path import path_workload


def path_db(anchor_rows=40, child_rows=30, tail_rows=20):
    """A(x,y) — B(y,z) — C(z,w): A is the anchor, y the partition variable."""
    a = Relation("A", ("x", "y"), [(i, i % 5) for i in range(anchor_rows)])
    b = Relation("B", ("y", "z"), [(i % 5, i % 7) for i in range(child_rows)])
    c = Relation("C", ("z", "w"), [(i % 7, i) for i in range(tail_rows)])
    return JoinQuery([Atom("A", ("x", "y")), Atom("B", ("y", "z")), Atom("C", ("z", "w"))]), Database([a, b, c])


class TestResolveShardCount:
    def test_none_is_serial(self):
        assert resolve_shard_count(None) == 0

    def test_positive_int_passes_through(self):
        assert resolve_shard_count(3) == 3

    @pytest.mark.parametrize("bad", ["fast", 0, -2, True, 2.5])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValidationError):
            resolve_shard_count(bad)


class TestStableHash:
    def test_integers_map_to_themselves(self):
        assert stable_shard_hash(7) == 7
        assert stable_shard_hash(-3) == -3

    def test_bools_are_ints(self):
        assert stable_shard_hash(True) == 1
        assert stable_shard_hash(False) == 0

    def test_strings_are_deterministic(self):
        # Unlike hash(), crc32 is independent of PYTHONHASHSEED: the value
        # below is a permanent contract (shard contents must be stable
        # between the coordinator and any re-planning across processes).
        import zlib

        assert stable_shard_hash("abc") == zlib.crc32(b"abc")
        assert stable_shard_hash("abc") == stable_shard_hash("abc")

    def test_integral_floats_match_ints(self):
        assert stable_shard_hash(4.0) == stable_shard_hash(4)


class TestPlanStructure:
    def test_anchor_is_largest_relation(self):
        query, db = path_db()
        plan = ShardPlanner(3).plan(query, db)
        assert plan.anchor == "A"
        assert plan.partition_variable == "y"

    def test_hashed_rows_land_on_their_hash_shard(self):
        query, db = path_db()
        K = 3
        plan = ShardPlanner(K).plan(query, db)
        assert "A" in plan.hashed and "B" in plan.hashed
        for shard in range(K):
            schema, columns = plan.shard_relations[shard]["A"]
            y_column = columns[schema.index("y")]
            assert all(stable_shard_hash(y) % K == shard for y in y_column)

    def test_hash_partition_is_disjoint_and_complete(self):
        query, db = path_db()
        K = 4
        plan = ShardPlanner(K).plan(query, db)
        shipped = []
        for shard in range(K):
            schema, columns = plan.shard_relations[shard]["A"]
            shipped.extend(zip(*columns) if columns[0] else [])
        assert sorted(shipped) == sorted(db["A"].rows)

    def test_small_relations_broadcast(self):
        query, db = path_db()
        plan = ShardPlanner(2).plan(query, db)
        assert "C" in plan.broadcast
        schemas = [plan.shard_relations[s]["C"] for s in range(2)]
        assert schemas[0] is schemas[1] or schemas[0] == schemas[1]

    def test_single_shard_degenerates_to_everything(self):
        query, db = path_db()
        plan = ShardPlanner(1).plan(query, db)
        assert plan.num_shards == 1
        assert plan.shard_rows[0] == plan.total_rows

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValidationError):
            ShardPlanner(0)

    def test_every_atom_without_the_partition_variable_broadcasts(self):
        # C has 2 000 rows: size never decides placement, only the variable.
        query, db = path_db(anchor_rows=3000, tail_rows=2000)
        plan = ShardPlanner(2).plan(query, db)
        assert (plan.hashed, plan.broadcast) == (("A", "B"), ("C",))
        for shard in range(2):
            schema, columns = plan.shard_relations[shard]["C"]
            assert list(zip(*columns)) == db["C"].rows


class TestBenchmarkShapedPlan:
    @pytest.mark.parametrize(
        ("seed", "shard_rows"), [(1823, [1197, 1203]), (7, [1234, 1166])]
    )
    def test_path_rows_hash_the_first_two_atoms_and_broadcast_the_third(
        self, seed, shard_rows
    ):
        # The sharded benchmark's shape: a 600-row 3-path sharded K = 2.
        workload = path_workload(3, 600, join_domain=30, seed=seed)
        plan = ShardPlanner(2).plan(workload.query, workload.db)
        assert (plan.anchor, plan.partition_variable) == ("R1", "x2")
        assert (plan.hashed, plan.broadcast) == (("R1", "R2"), ("R3",))
        assert plan.shard_rows == shard_rows
        for shard in range(2):
            schema, columns = plan.shard_relations[shard]["R3"]
            assert list(zip(*columns)) == workload.db["R3"].rows
