"""lock-discipline: module-level mutable state mutates only under its lock.

PR 7's serve threads exposed exactly this class of bug: the module-level
routing-table LRU in ``repro.routing.paths`` was mutated from multiple
threads without a lock, corrupting the ``OrderedDict``.  The fix
established the repo's pattern — a module-level ``threading.Lock()`` /
``RLock()`` next to the state, every mutation inside ``with _LOCK:``
(``_LIB_CACHE``/``_BUILD_LOCK`` in kernels/native.py; that LRU has since
been deleted).

The rule is deliberately opt-in by shape: it only examines modules that
define a module-level lock (no lock, no claim of thread-safety, no rule).
In those modules it finds the module-level mutable containers (dict/list/
set literals or ``dict()``/``OrderedDict()``/``defaultdict()``/... calls)
and the ``global``-rebound scalars, then requires every function-scope
mutation — subscript assignment, ``del``, augmented assignment, mutating
method calls (``append``/``pop``/``update``/``move_to_end``/...) and
``global`` rebinds — to sit lexically inside a ``with`` on one of the
module's locks.  Module top-level initialisation is exempt (imports run
single-threaded under the import lock); reads are exempt (callers decide
their own consistency needs, and flagging reads would drown the signal).
"""

from __future__ import annotations

import ast

from repro.lint.core import Finding, ModuleContext

RULE = "lock-discipline"

_LOCK_FACTORIES = ("Lock", "RLock")
_CONTAINER_CALLS = (
    "dict",
    "list",
    "set",
    "OrderedDict",
    "defaultdict",
    "deque",
    "Counter",
)
_CONTAINER_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "move_to_end",
        "appendleft",
        "popleft",
    }
)


def _module_level_names(ctx: ModuleContext):
    """(lock names, mutable-container names, all top-level assigned names)."""
    threading_aliases: set[str] = set()
    lock_ctors: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "threading":
                    threading_aliases.add(alias.asname or "threading")
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            for alias in node.names:
                if alias.name in _LOCK_FACTORIES:
                    lock_ctors.add(alias.asname or alias.name)

    locks: set[str] = set()
    containers: set[str] = set()
    assigned: set[str] = set()
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target] if isinstance(stmt.target, ast.Name) else []
            value = stmt.value
        else:
            continue
        names = {t.id for t in targets}
        assigned |= names
        if isinstance(value, ast.Call):
            func = value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _LOCK_FACTORIES
                and isinstance(func.value, ast.Name)
                and func.value.id in threading_aliases
            ) or (isinstance(func, ast.Name) and func.id in lock_ctors):
                locks |= names
            elif isinstance(func, ast.Name) and func.id in _CONTAINER_CALLS:
                containers |= names
        elif isinstance(value, _CONTAINER_LITERALS):
            containers |= names
    return locks, containers, assigned


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext, locks, containers, rebindable):
        self.ctx = ctx
        self.locks = locks
        self.containers = containers
        self.rebindable = rebindable  # global-declared names assigned at top level
        self.func_depth = 0
        self.lock_depth = 0
        self.globals_stack: list[set] = []
        self.findings: list[Finding] = []

    def _enter_func(self, node):
        self.func_depth += 1
        self.globals_stack.append(set())
        self.generic_visit(node)
        self.globals_stack.pop()
        self.func_depth -= 1

    visit_FunctionDef = _enter_func
    visit_AsyncFunctionDef = _enter_func

    def visit_Global(self, node: ast.Global):
        if self.globals_stack:
            self.globals_stack[-1] |= set(node.names)

    def visit_With(self, node: ast.With):
        held = any(
            isinstance(item.context_expr, ast.Name)
            and item.context_expr.id in self.locks
            for item in node.items
        )
        if held:
            self.lock_depth += 1
        self.generic_visit(node)
        if held:
            self.lock_depth -= 1

    # -- mutation sites ----------------------------------------------------

    def _flag(self, node: ast.AST, name: str, action: str) -> None:
        if self.func_depth == 0 or self.lock_depth > 0:
            return
        self.findings.append(
            self.ctx.finding(
                node,
                RULE,
                f"{action} of module-level state '{name}' outside its lock; "
                "wrap the mutation in `with <module lock>:` "
                "(this module declares one, so the state is shared)",
            )
        )

    def _check_target(self, node, target) -> None:
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            if target.value.id in self.containers:
                self._flag(node, target.value.id, "subscript mutation")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(node, element)
        elif isinstance(target, ast.Name):
            declared_global = any(target.id in scope for scope in self.globals_stack)
            if declared_global and target.id in self.rebindable:
                self._flag(node, target.id, "global rebind")

    def visit_Assign(self, node: ast.Assign):
        for target in node.targets:
            self._check_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign):
        self._check_target(node, node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id in self.containers:
                    self._flag(node, target.value.id, "subscript delete")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.containers
        ):
            self._flag(node, func.value.id, f".{func.attr}() mutation")
        self.generic_visit(node)


def check(ctx: ModuleContext) -> list[Finding]:
    locks, containers, assigned = _module_level_names(ctx)
    if not locks:
        return []

    rebindable = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Global):
            rebindable |= set(node.names) & assigned
    rebindable -= locks

    if not containers and not rebindable:
        return []
    visitor = _Visitor(ctx, locks, containers, rebindable)
    visitor.visit(ctx.tree)
    return visitor.findings
