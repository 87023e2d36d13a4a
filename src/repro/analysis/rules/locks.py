"""RPR002 — shared-cache published state must be mutated under the lock.

:class:`~repro.joins.tree_cache.TreeCache` and
:class:`~repro.data.indexes.IndexCatalog` are shared by every concurrent
request in the always-on service.  Their concurrency contract (proved by
the threaded fault-injection tests) is *build off to the side, publish
under the lock*: the dictionaries that readers traverse are only ever
mutated inside a ``with self._lock:`` block.  A mutation added outside the
lock reintroduces exactly the torn-cache bug class PR 7 eliminated — a
reader observing a half-installed entry — so this rule flags it at CI time.

Detection is lexical and intentionally conservative:

* inside a class registered as lock-guarded, any mutation of a guarded
  ``self.<attribute>`` — subscript/attribute assignment, ``del``,
  augmented assignment, or a known mutator method call (``clear``,
  ``pop``, ``setdefault``, ``move_to_end``, ...) — must have a ``with``
  statement whose context expression mentions a lock among its AST
  ancestors;
* a local alias (``entries = self._entries``) inherits the guard
  requirement within the same function, so aliasing cannot launder a
  mutation out of the rule's sight;
* ``__init__`` is exempt: the object is not shared before construction
  completes (publication of the object itself is the owner's problem).

Rebinding the attribute itself (``self._entries = {}``) outside
``__init__`` is also flagged — swapping the whole dict is still a publish.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar

from repro.analysis.engine import Finding, ParsedModule, Rule, Severity

__all__ = ["LockPublishRule", "GUARDED_CLASSES"]

#: class name -> attribute names readers may traverse concurrently.
GUARDED_CLASSES: dict[str, frozenset[str]] = {
    "TreeCache": frozenset({"_entries"}),
    "StateTable": frozenset({"_states"}),
    "IndexCatalog": frozenset({"_hash_indexes", "_key_sets", "_orders"}),
}

#: Method calls that mutate a dict / OrderedDict / set in place.
MUTATOR_METHODS = frozenset(
    {
        "clear",
        "pop",
        "popitem",
        "update",
        "setdefault",
        "move_to_end",
        "add",
        "remove",
        "discard",
        "append",
        "extend",
        "insert",
    }
)


def _is_self_attribute(node: ast.AST, attributes: frozenset[str]) -> str | None:
    """The guarded attribute name if ``node`` is ``self.<guarded>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in attributes
    ):
        return node.attr
    return None


def _mentions_lock(node: ast.AST) -> bool:
    """Whether an expression textually involves a lock object."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and "lock" in child.attr.lower():
            return True
        if isinstance(child, ast.Name) and "lock" in child.id.lower():
            return True
    return False


class LockPublishRule(Rule):
    """Flag unguarded mutations of shared-cache published attributes."""

    rule_id: ClassVar[str] = "RPR002"
    description: ClassVar[str] = (
        "published attributes of TreeCache/IndexCatalog must only be mutated "
        "inside a `with <lock>:` block (build off to the side, publish under "
        "the lock)"
    )
    severity: ClassVar[str] = Severity.ERROR

    def applies_to(self, path: str) -> bool:
        return "repro/" in path or path.endswith(".py")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            guarded = GUARDED_CLASSES.get(class_node.name)
            if guarded is None:
                continue
            yield from self._check_class(module, class_node, guarded)

    # ------------------------------------------------------------------ #
    def _check_class(
        self,
        module: ParsedModule,
        class_node: ast.ClassDef,
        guarded: frozenset[str],
    ) -> Iterator[Finding]:
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue
            aliases = self._collect_aliases(item, guarded)
            for node in ast.walk(item):
                attribute = self._mutated_attribute(node, guarded, aliases)
                if attribute is None:
                    continue
                if self._under_lock(module, node):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"mutation of {class_node.name}.{attribute} outside a "
                    "`with <lock>:` block — shared-cache state must be "
                    "published under its lock",
                    symbol=f"attr:{attribute}",
                )

    def _collect_aliases(
        self, function: ast.AST, guarded: frozenset[str]
    ) -> dict[str, str]:
        """Local names bound (anywhere in the function) to a guarded attr."""
        aliases: dict[str, str] = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                attribute = _is_self_attribute(node.value, guarded)
                if attribute is not None and isinstance(target, ast.Name):
                    aliases[target.id] = attribute
        return aliases

    def _mutated_attribute(
        self,
        node: ast.AST,
        guarded: frozenset[str],
        aliases: dict[str, str],
    ) -> str | None:
        """The guarded attribute ``node`` mutates, if any."""

        def resolve(expression: ast.AST) -> str | None:
            direct = _is_self_attribute(expression, guarded)
            if direct is not None:
                return direct
            if isinstance(expression, ast.Name):
                return aliases.get(expression.id)
            return None

        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                # self._entries = ... (rebinding is publishing too)
                direct = _is_self_attribute(target, guarded)
                if direct is not None:
                    return direct
                # self._entries[key] = ... / alias[key] = ...
                if isinstance(target, ast.Subscript):
                    resolved = resolve(target.value)
                    if resolved is not None:
                        return resolved
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    resolved = resolve(target.value)
                    if resolved is not None:
                        return resolved
                direct = _is_self_attribute(target, guarded)
                if direct is not None:
                    return direct
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS:
                return resolve(node.func.value)
        return None

    def _under_lock(self, module: ParsedModule, node: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if _mentions_lock(item.context_expr):
                        return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return False
