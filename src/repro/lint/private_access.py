"""private-access: no reaching across modules for ``_underscore`` names.

A single-underscore name is a module's (or class's) private surface: free
to change shape, rename or disappear without a deprecation dance.  The
moment another module imports or dereferences it, that freedom is gone —
silently, because nothing fails until the refactor lands.  The concrete
instance that motivated this rule: ``fleet/driver.py`` calling
``leases._expired(...)``, which pinned an internal lease-manager predicate
into the straggler-split policy (since removed).  The fix is always the same: promote the
name to a public method/function (keeping the old name as an alias for
compatibility) and depend on that.

The rule flags, per module:

* ``from repro.x import _name`` where ``repro.x`` is a *different* module
  (importing your own module's privates is impossible anyway);
* ``alias._name`` attribute access where ``alias`` is an imported
  ``repro.*`` module or an imported class/function from one; and
* ``var._name`` where ``var`` was assigned ``ImportedClass(...)`` — the
  linter's one bit of instance inference, deliberately limited to direct
  constructor calls so it never guesses.

``self._x``/``cls._x`` and dunders (``__version__``, ``__name__``) are
exempt, as is everything involving non-``repro`` modules — other
libraries' privacy is their linters' business.
"""

from __future__ import annotations

import ast

from repro.lint.core import Finding, ModuleContext

RULE = "private-access"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def check(ctx: ModuleContext) -> list[Finding]:
    package = ctx.config.package
    prefix = package + "."
    findings: list[Finding] = []

    #: local name -> originating repro module (dotted), for attribute checks.
    origins: dict[str, str] = {}
    #: imported callables (classes/factories) -> originating module.
    symbols: dict[str, str] = {}

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == package or alias.name.startswith(prefix):
                    if alias.asname:
                        origins[alias.asname] = alias.name
                    # bare `import repro.x.y` binds `repro`; accessing
                    # privates through the root package is equally flagged.
                    else:
                        origins[package] = package
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module is None:
                continue
            if node.module != package and not node.module.startswith(prefix):
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if _is_private(alias.name) and node.module != ctx.module:
                    findings.append(
                        ctx.finding(
                            node,
                            RULE,
                            f"imports private name '{alias.name}' from "
                            f"{node.module}; promote it to a public name "
                            "(keep the old one as an alias) and import that",
                        )
                    )
                # Either a submodule (module alias) or a class/function
                # (symbol); both give `local._x` a cross-module origin.
                origins[local] = f"{node.module}.{alias.name}"
                symbols[local] = node.module

    #: var -> module, for `var = ImportedClass(...)` instances.
    instances: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id in symbols
        ):
            instances[node.targets[0].id] = symbols[node.value.func.id]

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute) or not _is_private(node.attr):
            continue
        if not isinstance(node.value, ast.Name):
            continue
        name = node.value.id
        if name in ("self", "cls"):
            continue
        origin = origins.get(name) or instances.get(name)
        if origin is None or origin == ctx.module:
            continue
        findings.append(
            ctx.finding(
                node,
                RULE,
                f"access to private attribute '{node.attr}' of '{name}' "
                f"(from {origin}); promote it to a public name on that "
                "module/class instead",
            )
        )
    return findings
