"""atomic-write: store/lease/bench files must publish atomically.

Everything under a chunk-store, lease or bench root is read concurrently
by other workers (often over NFS), so a partially written file is a
*protocol* error, not a cosmetic one: a torn ``chunk-*.jsonl`` corrupts a
merge, a torn lease breaks mutual exclusion.  The repo's two blessed write
shapes are

* **tmp + fsync + os.replace** — write to a temp name in the same
  directory, ``os.fsync``, then atomically ``os.replace`` onto the final
  name (``ChunkStore.write``, ``merge_bench_json``); and
* **single O_APPEND os.write** — one ``os.write`` on an
  ``O_CREAT | O_WRONLY | O_APPEND`` descriptor, which POSIX appends
  atomically for reasonable record sizes (``SplitVerdictCache.put_many``:
  one write per chunk, holding every fresh verdict of the chunk).

This rule flags, in the covered files (``LintConfig.atomic_write_files``):
``open(p, "w")``-style truncating/appending builtin or ``Path.open`` calls,
``Path.write_text``/``write_bytes``, and ``os.open`` with ``O_TRUNC`` (or
``O_WRONLY`` without ``O_APPEND``) — except when the target expression
mentions ``tmp``, which marks the first leg of the tmp+replace dance.
Read-only opens, ``O_RDWR`` lock-file descriptors and raw ``os.write`` on
an already-open fd are all untouched.
"""

from __future__ import annotations

import ast

from repro.lint.core import Finding, ModuleContext

RULE = "atomic-write"

_MUTATING_MODE_CHARS = set("wax+")


def _mode_mutates(node: ast.Call, *, default: str) -> bool:
    mode = None
    if len(node.args) >= 2:
        mode = node.args[1]
    else:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
    if mode is None:
        return bool(_MUTATING_MODE_CHARS & set(default))
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_MUTATING_MODE_CHARS & set(mode.value))
    return False  # non-literal mode: give the benefit of the doubt


def _flag_names(expr: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _is_tmp_target(target: ast.AST | None) -> bool:
    if target is None:
        return False
    return "tmp" in ast.unparse(target).lower()


def check(ctx: ModuleContext) -> list[Finding]:
    if ctx.rel is None or ctx.rel not in ctx.config.atomic_write_files:
        return []

    os_aliases: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_aliases.add(alias.asname or "os")

    findings: list[Finding] = []

    def flag(node: ast.AST, target: ast.AST | None, what: str) -> None:
        if _is_tmp_target(target):
            return
        findings.append(
            ctx.finding(
                node,
                RULE,
                f"{what} in a store/lease/bench module is not atomic; "
                "publish via tmp + fsync + os.replace, or a single "
                "O_APPEND os.write",
            )
        )

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            if node.args and _mode_mutates(node, default="r"):
                flag(node, node.args[0], "builtin open() with a writable mode")
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            if isinstance(func.value, ast.Name) and func.value.id in os_aliases:
                if len(node.args) >= 2:
                    flags = _flag_names(node.args[1])
                    if "O_TRUNC" in flags or (
                        "O_WRONLY" in flags and "O_APPEND" not in flags
                    ):
                        flag(node, node.args[0], "truncating/non-append os.open()")
            elif _mode_mutates(node, default="r"):
                flag(node, func.value, ".open() with a writable mode")
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            flag(node, func.value, f".{func.attr}()")

    return findings
