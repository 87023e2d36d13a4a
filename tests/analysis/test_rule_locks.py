"""RPR002 — publish-under-lock for the shared caches."""

from __future__ import annotations

from repro.analysis import rpr002_lock_publish

PATH = "src/repro/joins/tree_cache.py"


def test_unguarded_subscript_assignment_flagged(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class TreeCache:
            def put(self, key, value):
                self._entries[key] = value
        """,
    )
    assert [(f.rule_id, f.line) for f in findings] == [("RPR002", 4)]
    assert "mutation of TreeCache._entries" in findings[0].message


def test_mutation_under_lock_passes(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class TreeCache:
            def put(self, key, value):
                with self._lock:
                    self._entries[key] = value
        """,
    )
    assert findings == []


def test_rebinding_whole_dict_flagged(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class TreeCache:
            def reset(self):
                self._entries = {}
        """,
    )
    assert len(findings) == 1
    assert "mutation of TreeCache._entries" in findings[0].message


def test_mutator_method_flagged(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class TreeCache:
            def reset(self):
                self._entries.clear()
        """,
    )
    assert len(findings) == 1
    assert "mutation of TreeCache._entries" in findings[0].message


def test_alias_cannot_launder_mutation(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class TreeCache:
            def sneaky(self, key, value):
                entries = self._entries
                entries[key] = value
        """,
    )
    assert len(findings) == 1
    assert "mutation of TreeCache._entries" in findings[0].message


def test_alias_mutation_under_lock_passes(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class TreeCache:
            def put(self, key, value):
                entries = self._entries
                with self._lock:
                    entries[key] = value
        """,
    )
    assert findings == []


def test_init_is_exempt(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class TreeCache:
            def __init__(self):
                self._entries = {}
        """,
    )
    assert findings == []


def test_unguarded_class_is_ignored(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class SomethingElse:
            def put(self, key, value):
                self._entries[key] = value
        """,
    )
    assert findings == []


def test_unguarded_attribute_is_ignored(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class TreeCache:
            def note(self, key):
                self._stats[key] = 1
        """,
    )
    assert findings == []


def test_index_catalog_attributes_guarded(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        "src/repro/data/indexes.py",
        """
        class IndexCatalog:
            def install(self, sig, keys):
                self._key_sets[sig] = keys
                self._key_sets.setdefault(sig, keys)
        """,
    )
    assert [f.message.split(" outside")[0] for f in findings] == [
        "mutation of IndexCatalog._key_sets",
        "mutation of IndexCatalog._key_sets",
    ]


def test_delete_outside_lock_flagged(run_rule):
    findings = run_rule(
        rpr002_lock_publish,
        PATH,
        """
        class TreeCache:
            def evict(self, key):
                del self._entries[key]
        """,
    )
    assert len(findings) == 1
    assert "mutation of TreeCache._entries" in findings[0].message
