"""Project-specific static analysis: four AST rules for runtime contracts.

The runtime and service layers are held together by contracts no
general-purpose linter knows about.  Each rule below is the *only* thing
that catches its defect (audited by mutation: the test suite, the fault
suite and the service smoke test all stay green when it is seeded):

========  ============================================================
RPR001    hot-path loops must reach ``checkpoint()``
RPR002    shared-cache published attributes mutate only under the lock
RPR003    no blocking calls inside ``async def`` service code
RPR004    library errors use the typed ``ReproError`` taxonomy
========  ============================================================

``python -m repro.analysis [paths...]`` (from the repository root; default
path ``src/repro``) prints one ``path:line:col: RPRnnn message``
line per finding and exits 0 (clean), 1 (findings, or a file that does not
parse) or 2 (a path that does not exist).  ``tests/analysis/test_self_check.py``
runs the same rules over the same tree on every tier-1 run, so there is no
separate CI job.

**Waivers.**  There is one way to excuse a finding — a comment at the source
line, or on the line directly above it::

    for row in rows:  # repro-analysis: allow RPR001 -- O(1) bounded loop

The ``-- reason`` part is mandatory: an unexplained waiver is ignored, so
silencing a rule always costs one line of justification, in the diff next
to the code it excuses.

**Known blind spot.**  RPR002 is lexical: it sees mutations of
``self.<guarded>`` and of local aliases of it.  It does *not* see a guarded
dict mutated through a helper's *parameter* — ``IndexCatalog._publish`` and
``_publish_overwrite`` receive ``self._orders`` & co. as ``table`` and take
the lock themselves; removing the lock there is silent.  Those two helpers
are the whole list; keep it that way rather than growing the rule.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

#: What ``python -m repro.analysis`` checks when given no paths.  No rule
#: applies outside the library, so there is nothing to walk in ``benchmarks/``.
DEFAULT_PATHS = ("src/repro",)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location (ordered by location)."""

    path: str
    line: int
    column: int
    rule_id: str
    message: str

    def render(self) -> str:
        """``path:line:col: RPRnnn message``."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule_id} {self.message}"


#: ``# repro-analysis: allow RPR001 -- reason`` (reason required).
_WAIVER_RE = re.compile(
    r"#\s*repro-analysis:\s*allow\s+(?P<rules>RPR\d{3}(?:\s*,\s*RPR\d{3})*)"
    r"\s*--\s*(?P<reason>\S.*)$"
)


class ParsedModule:
    """One parsed source file plus the lookups the rules share."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self._waivers: dict[int, set[str]] = {}
        for number, text in enumerate(source.splitlines(), start=1):
            match = _WAIVER_RE.search(text)
            if match is not None:
                rules = {part.strip() for part in match.group("rules").split(",")}
                self._waivers[number] = rules

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield enclosing nodes from the immediate parent to the module."""
        current = self._parents.get(id(node))
        while current is not None:
            yield current
            current = self._parents.get(id(current))

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The innermost function definition containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def waived(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is waived at ``line`` (same or previous line)."""
        return any(
            rule_id in self._waivers.get(candidate, ()) for candidate in (line, line - 1)
        )

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` of ``rule_id`` located at ``node``."""
        line, column = getattr(node, "lineno", 0), getattr(node, "col_offset", 0) + 1
        return Finding(self.path, line, column, rule_id, message)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def is_checkpoint_call(node: ast.AST) -> bool:
    """Whether ``node`` is a call that reaches the runtime checkpoint.

    Recognizes the canonical ``checkpoint(...)`` (however imported or
    re-exported) and explicit ``<context>.checkpoint(...)`` method calls.
    """
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "checkpoint"


# ---- RPR001 — loops in hot-path modules must reach a ``checkpoint()`` call --

#: Path fragments (posix) that mark a module as hot-path.
HOT_PATH_PACKAGES = (
    "repro/joins/",
    "repro/kernels/",
    "repro/pivot/",
    "repro/trim/",
    "repro/baselines/",
    "repro/parallel/",
    "repro/approx/",
)


def _contains_checkpoint(node: ast.AST) -> bool:
    return any(is_checkpoint_call(child) for child in ast.walk(node))


def rpr001_checkpoints(module: ParsedModule) -> Iterator[Finding]:
    """Flag hot-path loops that can never observe budgets or cancellation.

    The execution guardrails (budgets, cancellation, fault injection) are
    cooperative: a loop that never calls :func:`repro.runtime.checkpoint` is
    invisible to deadlines and cannot be cancelled or fault-injected.  Every
    module under :data:`HOT_PATH_PACKAGES` — joins, kernels, pivoting, exact
    and ε-lossy trimming, the sharded merger, and the baselines they are
    compared against — therefore threads a checkpoint through each loop nest.

    A loop is covered when a ``checkpoint(...)`` call (the module function, a
    re-export, or an explicit ``context.checkpoint(...)``) appears

    * inside the loop body itself, or
    * anywhere in the innermost enclosing function — the idiomatic pattern
      is one checkpoint per outer iteration covering the bounded inner
      loops, and a per-call checkpoint at the top of a helper covers its
      short scans.

    Comprehensions and generator expressions are not flagged: they cannot
    contain statements, so the contract point is the enclosing function's
    checkpoint.  Loops that are genuinely bounded (fixed-arity schema walks,
    O(log n) tree descents) carry an inline waiver with the justification
    spelled out.
    """
    if not any(fragment in module.path for fragment in HOT_PATH_PACKAGES):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
            continue
        function = module.enclosing_function(node)
        if _contains_checkpoint(function if function is not None else node):
            continue
        kind = "while" if isinstance(node, ast.While) else "for"
        scope = function.name if function is not None else "<module>"
        yield module.finding(
            "RPR001",
            node,
            f"{kind} loop in hot-path function {scope!r} never reaches "
            "checkpoint(); it is invisible to budgets, cancellation, and "
            "fault injection",
        )


# ---- RPR002 — shared-cache published state must be mutated under the lock ---

#: class name -> attribute names readers may traverse concurrently.
GUARDED_CLASSES: dict[str, frozenset[str]] = {
    "TreeCache": frozenset({"_entries"}),
    "StateTable": frozenset({"_states"}),
    "IndexCatalog": frozenset({"_hash_indexes", "_key_sets", "_orders"}),
}

#: Method calls that mutate a dict / OrderedDict / set in place.
MUTATOR_METHODS = frozenset(
    {
        "clear", "pop", "popitem", "update", "setdefault", "move_to_end",
        "add", "remove", "discard", "append", "extend", "insert",
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


def _under_lock(module: ParsedModule, node: ast.AST) -> bool:
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            if any(_mentions_lock(item.context_expr) for item in ancestor.items):
                return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    return False


def _collect_aliases(function: ast.AST, guarded: frozenset[str]) -> dict[str, str]:
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
    node: ast.AST, guarded: frozenset[str], aliases: dict[str, str]
) -> str | None:
    """The guarded attribute ``node`` mutates, if any."""

    def resolve(expression: ast.AST) -> str | None:
        direct = _is_self_attribute(expression, guarded)
        if direct is not None:
            return direct
        if isinstance(expression, ast.Name):
            return aliases.get(expression.id)
        return None

    targets: list[ast.expr] = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        # self._entries[key] = ... / alias[key] = ... / del alias[key]
        if isinstance(target, ast.Subscript):
            target = target.value
        # ... and self._entries = {}: rebinding is publishing too, but
        # rebinding a local alias is not.
        elif isinstance(target, ast.Name):
            continue
        resolved = resolve(target)
        if resolved is not None:
            return resolved
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATOR_METHODS:
            return resolve(node.func.value)
    return None


def rpr002_lock_publish(module: ParsedModule) -> Iterator[Finding]:
    """Flag unguarded mutations of shared-cache published attributes.

    :class:`~repro.joins.tree_cache.TreeCache`, its ``StateTable`` and
    :class:`~repro.data.indexes.IndexCatalog` are shared by every concurrent
    request in the always-on service.  Their concurrency contract (proved by
    the threaded fault-injection tests) is *build off to the side, publish
    under the lock*: the dictionaries that readers traverse are only ever
    mutated inside a ``with self._lock:`` block.  A mutation added outside
    the lock reintroduces exactly the torn-cache bug class PR 7 eliminated —
    a reader observing a half-installed entry.

    Detection is lexical and intentionally conservative:

    * inside a class listed in :data:`GUARDED_CLASSES`, any mutation of a
      guarded ``self.<attribute>`` — subscript/attribute assignment, ``del``,
      augmented assignment, or a known mutator method call (``clear``,
      ``pop``, ``setdefault``, ``move_to_end``, ...) — must have a ``with``
      statement whose context expression mentions a lock among its AST
      ancestors;
    * a local alias (``entries = self._entries``) inherits the guard
      requirement within the same function, so aliasing cannot launder a
      mutation out of the rule's sight (a *parameter* can — see the module
      docstring);
    * ``__init__`` is exempt: the object is not shared before construction
      completes (publication of the object itself is the owner's problem).

    Rebinding the attribute itself (``self._entries = {}``) outside
    ``__init__`` is also flagged — swapping the whole dict is still a
    publish.
    """
    for class_node in ast.walk(module.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        guarded = GUARDED_CLASSES.get(class_node.name)
        if guarded is None:
            continue
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue
            aliases = _collect_aliases(item, guarded)
            for node in ast.walk(item):
                attribute = _mutated_attribute(node, guarded, aliases)
                if attribute is None or _under_lock(module, node):
                    continue
                yield module.finding(
                    "RPR002",
                    node,
                    f"mutation of {class_node.name}.{attribute} outside a "
                    "`with <lock>:` block — shared-cache state must be "
                    "published under its lock",
                )


# ---- RPR003 — async service code must never block the event loop ------------

#: Dotted call names that block the loop.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run", "subprocess.call", "subprocess.check_call",
        "subprocess.check_output", "subprocess.Popen",
        "os.system", "os.popen", "os.waitpid",
        "socket.create_connection", "socket.getaddrinfo",
        "urllib.request.urlopen",
        "requests.get", "requests.post", "requests.request",
    }
)

#: Bare names that open synchronous file handles.
BLOCKING_BARE_CALLS = frozenset({"open"})

#: Method names that perform synchronous IO on common handle types.  Kept
#: to the unambiguous pathlib readers/writers; bare ``.read()``/``.write()``
#: would false-positive on asyncio streams and byte buffers.
BLOCKING_METHODS = frozenset({"read_text", "write_text", "read_bytes", "write_bytes"})


def _blocking_name(call: ast.Call) -> str | None:
    name = dotted_name(call.func)
    if name is not None and (name in BLOCKING_CALLS or name in BLOCKING_BARE_CALLS):
        return name
    if isinstance(call.func, ast.Attribute) and call.func.attr in BLOCKING_METHODS:
        return call.func.attr
    return None


def rpr003_async_blocking(module: ParsedModule) -> Iterator[Finding]:
    """Flag synchronous blocking calls made directly inside ``async def``.

    The always-on service is a single-threaded asyncio loop: one blocking
    call inside an ``async def`` stalls every in-flight request, defeats the
    admission controller's queue-time sheds, and turns graceful drain into a
    hang.  CPU-bound engine work is deliberately pushed to an executor
    (``loop.run_in_executor``); this rule catches the synchronous calls that
    must never appear directly in a coroutine under ``repro/service/``:
    ``time.sleep``, synchronous file/socket IO, and subprocess spawns.

    Only calls whose *innermost* enclosing function is ``async def`` are
    flagged.  A synchronous helper defined inside a coroutine is assumed to
    be executor-bound — flagging it would punish exactly the correct fix —
    and the engine/executor boundary is covered by the service smoke test
    instead.
    """
    if "repro/service/" not in module.path:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        blocked = _blocking_name(node)
        if blocked is None:
            continue
        function = module.enclosing_function(node)
        if not isinstance(function, ast.AsyncFunctionDef):
            continue
        yield module.finding(
            "RPR003",
            node,
            f"blocking call {blocked}() inside async def {function.name!r} — "
            "it stalls the service event loop; use an executor or the asyncio "
            "equivalent",
        )


# ---- RPR004 — library code raises the typed ``ReproError`` taxonomy ---------

#: Builtin exception types library code must not raise directly.
UNTYPED_BUILTINS = frozenset(
    {"ValueError", "TypeError", "RuntimeError", "Exception", "NotImplementedError"}
)


def _is_abstract_body(module: ParsedModule, node: ast.Raise) -> bool:
    """Whether the enclosing function is only ``node`` (plus a docstring)."""
    function = module.enclosing_function(node)
    if function is None:
        return False
    documented = ast.get_docstring(function, clean=False) is not None
    body = function.body[1:] if documented else function.body
    return len(body) == 1 and body[0] is node


def rpr004_typed_errors(module: ParsedModule) -> Iterator[Finding]:
    """Flag raises of untyped builtin exceptions in library code.

    The documented contract since PR 6 is "catch :class:`ReproError` to
    catch everything this library raises": the CLI maps the taxonomy to
    stable exit codes, the service maps it to HTTP statuses, and the engine's
    degradation ladder distinguishes budget trips from validation failures by
    type.  A bare ``raise ValueError(...)`` anywhere under ``src/repro/``
    silently escapes all three.  The fix is almost always
    :class:`~repro.exceptions.ValidationError` (which still *is* a
    ``ValueError`` for historical callers) or a new ``ReproError`` subclass.

    ``exceptions.py`` itself is exempt (it defines the bridge classes),
    re-raises (``raise`` with no exception) are never flagged, and
    ``NotImplementedError`` is allowed as the whole body of an abstract
    method — flagging that would fight the standard idiom.
    """
    if "repro/" not in module.path or module.path.endswith("repro/exceptions.py"):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not isinstance(exc, ast.Name) or exc.id not in UNTYPED_BUILTINS:
            continue
        if exc.id == "NotImplementedError" and _is_abstract_body(module, node):
            continue
        yield module.finding(
            "RPR004",
            node,
            f"raise {exc.id} in library code — use the ReproError taxonomy "
            "(ValidationError for caller-input checks) so `except "
            "ReproError` and the CLI/service error mapping keep working",
        )


# ---- Running the rules ------------------------------------------------------

Rule = Callable[[ParsedModule], Iterator[Finding]]

#: Every rule; each one decides from ``module.path`` whether it applies.
RULES: tuple[Rule, ...] = (
    rpr001_checkpoints,
    rpr002_lock_publish,
    rpr003_async_blocking,
    rpr004_typed_errors,
)


@dataclass
class Report:
    """What one :func:`run` produced; any entry in ``findings`` fails it."""

    findings: list[Finding]
    #: Findings silenced by a justified inline waiver (counted for audit).
    waived: list[Finding]
    #: Root-relative posix path of every file parsed.
    files: list[str]


def check_module(
    module: ParsedModule, rules: Sequence[Rule] = RULES
) -> tuple[list[Finding], list[Finding]]:
    """Run ``rules`` over ``module``: (active findings, waived findings)."""
    active: list[Finding] = []
    waived: list[Finding] = []
    for rule in rules:
        for finding in rule(module):
            silenced = module.waived(finding.rule_id, finding.line)
            (waived if silenced else active).append(finding)
    return sorted(active), sorted(waived)


def iter_python_files(roots: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``*.py`` file under ``roots`` in sorted order.

    Hidden directories and ``__pycache__`` are skipped; a root that is
    itself a file is yielded as-is.
    """
    for root in roots:
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).parts
            if any(part == "__pycache__" or part.startswith(".") for part in relative):
                continue
            yield path


def run(paths: Sequence[Path], root: Path) -> Report:
    """Check every python file under ``paths``.

    Paths in findings are made relative to ``root`` (posix form), which is
    also what the rules' path fragments are matched against.  A file that
    does not parse is reported as an ``RPR000`` finding.
    """
    root = root.resolve()
    report = Report(findings=[], waived=[], files=[])
    for file_path in iter_python_files(paths):
        resolved = file_path.resolve()
        try:
            relative = resolved.relative_to(root).as_posix()
        except ValueError:
            relative = resolved.as_posix()
        report.files.append(relative)
        try:
            module = ParsedModule(relative, file_path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            where = (exc.lineno or 0, exc.offset or 1)
            report.findings.append(Finding(relative, *where, "RPR000", f"syntax error: {exc.msg}"))
            continue
        active, waived = check_module(module)
        report.findings.extend(active)
        report.waived.extend(waived)
    report.findings.sort()
    return report


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis [paths...]``; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant checker for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help="files or directories to check (default: %(default)s)",
    )
    paths = [Path(raw) for raw in parser.parse_args(argv).paths]
    for path in paths:
        if not path.exists():
            print(f"error: path does not exist: {path}", file=sys.stderr)
            return 2
    report = run(paths, root=Path.cwd())
    for finding in report.findings:
        print(finding.render())
    print(
        f"{len(report.files)} files checked: {len(report.findings)} findings, "
        f"{len(report.waived)} waived"
    )
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
