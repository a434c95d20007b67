"""clock-seam: no bare wall-clock reads in chaos-covered modules.

The chaos harness (:mod:`repro.chaos`) proves fleet/serve convergence under
frozen and skewed clocks — but only for code that reads time through an
injectable seam (``LeaseManager(clock=..., monotonic=...)``,
``MetricsRegistry(clock=...)``).  A direct ``time.time()`` call inside
``fleet/``, ``serve/`` or ``chaos/`` is invisible to ``ChaosClock``: the
test sweeps pass while the production path takes a different branch.  This
is exactly how the fleet's straggler-split policy (since removed) regressed
before this rule existed.

What counts as a violation
--------------------------

A *call* to ``time.time`` or ``time.monotonic`` (through any import alias)
lexically inside a covered module.  References are fine — the canonical
seam pattern ``def __init__(self, *, clock=time.time)`` stores the function
without calling it, and stays allowed.  Declared seams
(``LintConfig.clock_seams`` as ``(rel_path, qualname)`` pairs) may call the
clock directly; they are the place the injected default comes from.
"""

from __future__ import annotations

import ast

from repro.lint.core import Finding, ModuleContext

RULE = "clock-seam"

_CLOCK_FUNCS = ("time", "monotonic")


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext, module_aliases: set, func_aliases: dict):
        self.ctx = ctx
        self.module_aliases = module_aliases
        self.func_aliases = func_aliases
        self.allowed = {
            qualname
            for rel, qualname in ctx.config.clock_seams
            if rel == ctx.rel
        }
        self.stack: list[str] = []
        self.findings: list[Finding] = []

    def _enter(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = _enter
    visit_AsyncFunctionDef = _enter
    visit_ClassDef = _enter

    def _in_seam(self) -> bool:
        qualname = ".".join(self.stack)
        return any(
            qualname == seam or qualname.startswith(seam + ".")
            for seam in self.allowed
        )

    def visit_Call(self, node: ast.Call):
        func = node.func
        called = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _CLOCK_FUNCS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.module_aliases
        ):
            called = func.attr
        elif isinstance(func, ast.Name) and func.id in self.func_aliases:
            called = self.func_aliases[func.id]
        if called is not None and not self._in_seam():
            self.findings.append(
                self.ctx.finding(
                    node,
                    RULE,
                    f"bare time.{called}() call in a chaos-covered module; "
                    "route it through an injected clock seam (e.g. the lease "
                    "manager's clock) or declare the seam in "
                    "LintConfig.clock_seams",
                )
            )
        self.generic_visit(node)


def check(ctx: ModuleContext) -> list[Finding]:
    if ctx.rel is None:
        return []
    if not any(ctx.rel.startswith(prefix) for prefix in ctx.config.clock_seam_prefixes):
        return []

    module_aliases: set[str] = set()
    func_aliases: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    module_aliases.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and node.level == 0:
                for alias in node.names:
                    if alias.name in _CLOCK_FUNCS:
                        func_aliases[alias.asname or alias.name] = alias.name

    if not module_aliases and not func_aliases:
        return []
    visitor = _Visitor(ctx, module_aliases, func_aliases)
    visitor.visit(ctx.tree)
    return visitor.findings
