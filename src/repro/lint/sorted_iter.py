"""sorted-iteration: directory listings must be ordered before use.

``Path.glob``/``os.listdir`` return entries in *filesystem* order — inode
order on ext4, readdir cookie order on NFS, something else again on tmpfs.
Any listing that feeds a digest, a merge, JSON output or chunk assembly
therefore produces machine-dependent bytes unless it is sorted first, and
byte-identical artifacts are this repo's core reproducibility claim (chunk
merges, ``BENCH_*.json``, status snapshots).

The rule flags calls to ``.glob(...)``/``.rglob(...)``/``.iterdir()`` and
``os.listdir``/``os.scandir`` anywhere in the scanned tree, unless an
enclosing call in the same expression is ``sorted(...)`` — the canonical
fix (see ``LeaseManager.active`` in fleet/leases.py) — or ``len(...)``,
which is order-insensitive by construction (a ``len(list(...))`` file
count).  A listing bound to a variable and sorted
*later* still fires: keeping the ordering adjacent to the listing is the
point — reviewers should never have to chase data flow to check
determinism.
"""

from __future__ import annotations

import ast

from repro.lint.core import Finding, ModuleContext

RULE = "sorted-iteration"

_LISTING_METHODS = ("glob", "rglob", "iterdir")
_OS_LISTINGS = ("listdir", "scandir")
_ORDER_INSENSITIVE_WRAPPERS = ("sorted", "len")


def _listing_call(node: ast.Call, os_aliases: set[str]) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in _OS_LISTINGS and (
            isinstance(func.value, ast.Name) and func.value.id in os_aliases
        ):
            return f"os.{func.attr}"
        if func.attr in _LISTING_METHODS:
            return f".{func.attr}"
    return None


def _wrapped_order_insensitively(ctx: ModuleContext, node: ast.Call) -> bool:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.stmt):
            return False
        if (
            isinstance(ancestor, ast.Call)
            and isinstance(ancestor.func, ast.Name)
            and ancestor.func.id in _ORDER_INSENSITIVE_WRAPPERS
        ):
            return True
    return False


def check(ctx: ModuleContext) -> list[Finding]:
    os_aliases: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_aliases.add(alias.asname or "os")

    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        what = _listing_call(node, os_aliases)
        if what is None:
            continue
        if _wrapped_order_insensitively(ctx, node):
            continue
        findings.append(
            ctx.finding(
                node,
                RULE,
                f"{what}() iterates in nondeterministic filesystem order; "
                "wrap the listing in sorted(...) where it is produced "
                "(or len(...) if only the count matters)",
            )
        )
    return findings
