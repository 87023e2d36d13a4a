"""Shard-planner tests: stable hashing, placement modes, disjoint coverage."""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import ValidationError
from repro.parallel.planner import (
    DEFAULT_BROADCAST_THRESHOLD,
    ShardPlanner,
    default_shard_count,
    resolve_shard_count,
    stable_shard_hash,
)
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery


def path_db(anchor_rows=40, child_rows=30, tail_rows=20):
    """A(x,y) — B(y,z) — C(z,w): A is the anchor, y the partition variable."""
    a = Relation("A", ("x", "y"), [(i, i % 5) for i in range(anchor_rows)])
    b = Relation("B", ("y", "z"), [(i % 5, i % 7) for i in range(child_rows)])
    c = Relation("C", ("z", "w"), [(i % 7, i) for i in range(tail_rows)])
    return JoinQuery([Atom("A", ("x", "y")), Atom("B", ("y", "z")), Atom("C", ("z", "w"))]), Database([a, b, c])


class TestResolveShardCount:
    def test_none_is_serial(self):
        assert resolve_shard_count(None) == 0

    def test_auto_uses_shared_default(self):
        assert resolve_shard_count("auto") == default_shard_count()

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
        plan = ShardPlanner(2).plan(query, db)  # default threshold 1024
        assert "C" in plan.broadcast
        schemas = [plan.shard_relations[s]["C"] for s in range(2)]
        assert schemas[0] is schemas[1] or schemas[0] == schemas[1]

    def test_large_relations_route_along_the_tree(self):
        query, db = path_db()
        plan = ShardPlanner(2, broadcast_threshold=0).plan(query, db)
        assert plan.routed == ("C",)
        # Every shipped C row joins some B row in the same shard.
        for shard in range(2):
            b_schema, b_columns = plan.shard_relations[shard]["B"]
            b_z = set(b_columns[b_schema.index("z")])
            c_schema, c_columns = plan.shard_relations[shard]["C"]
            assert set(c_columns[c_schema.index("z")]) <= b_z

    def test_broadcast_parent_forces_child_broadcast(self):
        # A(x,y) — B(y,z) — C(z,w) — D(w,u): make C small (broadcast) and D
        # large; D cannot be routed through a replicated parent, so it must
        # broadcast too (correctness, not an optimization).
        a = Relation("A", ("x", "y"), [(i, i % 4) for i in range(50)])
        b = Relation("B", ("y", "z"), [(i % 4, i % 3) for i in range(40)])
        c = Relation("C", ("z", "w"), [(i % 3, i % 2) for i in range(2)])
        d = Relation("D", ("w", "u"), [(i % 2, i) for i in range(30)])
        query = JoinQuery(
            [
                Atom("A", ("x", "y")),
                Atom("B", ("y", "z")),
                Atom("C", ("z", "w")),
                Atom("D", ("w", "u")),
            ]
        )
        plan = ShardPlanner(2, broadcast_threshold=5).plan(query, Database([a, b, c, d]))
        assert "C" in plan.broadcast
        assert "D" in plan.broadcast
        assert "D" not in plan.routed

    def test_dangling_routed_rows_are_dropped_and_counted(self):
        query, db = path_db()
        c = db["C"]
        # z=99 joins no B row anywhere
        db = Database([db["A"], db["B"], Relation("C", c.schema, c.rows + [(99, 999)])])
        plan = ShardPlanner(2, broadcast_threshold=0).plan(query, db)
        assert plan.dropped_rows >= 1
        for shard in range(2):
            schema, columns = plan.shard_relations[shard]["C"]
            assert 99 not in columns[schema.index("z")]

    def test_single_shard_degenerates_to_everything(self):
        query, db = path_db()
        plan = ShardPlanner(1).plan(query, db)
        assert plan.num_shards == 1
        assert plan.shard_rows[0] == plan.total_rows

    def test_describe_is_json_friendly(self):
        import json

        query, db = path_db()
        summary = ShardPlanner(2).plan(query, db).describe()
        assert summary["num_shards"] == 2
        assert summary["partition_variable"] == "y"
        json.dumps(summary)  # must not raise

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValidationError):
            ShardPlanner(0)

    def test_default_threshold_is_documented_value(self):
        assert DEFAULT_BROADCAST_THRESHOLD == 1024
