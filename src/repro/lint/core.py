"""Shared machinery for the ``repro.lint`` contract checkers.

The linter is a thin orchestration layer over per-file checkers built on
the stdlib :mod:`ast` module — no third-party dependency, so it runs
everywhere the library runs (including the numpy-fallback CI leg).

Vocabulary
----------

* A **checker module** exports ``RULE`` (the rule name used in findings,
  suppressions and ``--rules``) and ``check(ctx)``, run once per file.
* A :class:`ModuleContext` bundles everything a checker needs about one
  file: the parsed tree, the raw source, and where the file sits relative
  to the ``repro`` package (``rel``/``module`` are ``None`` for files
  outside it, e.g. when pointing the linter at a fixture directory).
* A :class:`Finding` is one violation.  Its :meth:`Finding.key` is
  line-number-free so baseline entries survive unrelated edits above the
  finding.

Suppressions
------------

A finding is dropped when the physical source line it is reported on
carries ``# lint: disable=<rule>`` (comma-separated rules, or ``all``).
Findings on multi-line statements are reported on the line of the
offending expression, so the comment goes there, not on the statement's
first line.

Baselines
---------

``load_baseline``/``write_baseline`` read and write the committed
``lint-baseline.json``: a JSON document whose ``suppressed`` entries are
``{"rule", "path", "message"}`` objects.  Baselined findings are filtered
out by :func:`apply_baseline`; the committed repo baseline is empty —
every real violation the checkers surfaced was fixed instead.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "LintConfig",
    "DEFAULT_CONFIG",
    "ModuleContext",
    "all_rules",
    "run_lint",
    "iter_python_files",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
    "render_text",
    "render_json",
]

#: ``# lint: disable=rule-a,rule-b`` (or ``disable=all``) on the reported line.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def key(self) -> str:
        """Line-free identity used for baseline matching."""
        return f"{self.rule}:{self.path}:{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def as_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class LintConfig:
    """Repo-contract knobs; the defaults encode *this* repository's rules."""

    #: the package whose layout defines ``ModuleContext.rel``/``module``.
    package: str = "repro"

    #: package-relative prefixes whose modules must route wall-clock reads
    #: through injectable seams (the chaos harness only proves convergence
    #: for code it can freeze/skew).
    clock_seam_prefixes: tuple[str, ...] = ("fleet/", "serve/", "chaos/")

    #: ``(package-relative path, function qualname)`` pairs allowed to call
    #: ``time.time()``/``time.monotonic()`` directly — the declared seams
    #: themselves (e.g. a default-clock factory).  Empty: the repo's seams
    #: take clocks as constructor defaults, which are references, not calls.
    clock_seams: tuple[tuple[str, str], ...] = ()

    #: package-relative files whose writes land under store/lease/bench
    #: roots and therefore must be atomic (tmp+fsync+``os.replace``) or
    #: single-``os.write`` O_APPEND.
    atomic_write_files: tuple[str, ...] = (
        "otis/sweep.py",
        "fleet/leases.py",
        "fleet/driver.py",
        "fleet/status.py",
        "analysis/tables.py",
        "analysis/bench_check.py",
        "serve/registry.py",
        "simulation/sharding.py",
    )


DEFAULT_CONFIG = LintConfig()


@dataclass
class ModuleContext:
    """Everything the per-file checkers need about one source file."""

    path: Path
    display: str
    rel: str | None
    module: str | None
    source: str
    tree: ast.Module
    config: LintConfig
    _parents: dict | None = field(default=None, repr=False)

    def parents(self) -> dict:
        """Child-node -> parent-node map for ancestor walks (lazily built)."""
        if self._parents is None:
            parents: dict = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST):
        """Yield ``node``'s ancestors, innermost first."""
        parents = self.parents()
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


def package_location(path: Path, package: str) -> tuple[str | None, str | None]:
    """``(rel, module)`` of ``path`` inside ``package``, or ``(None, None)``.

    ``rel`` is the posix path below the *last* directory named ``package``
    on the path (``fleet/driver.py``); ``module`` is the dotted module name
    (``repro.fleet.driver``).  Matching the last occurrence means a repo
    checked out under a directory that itself happens to be called
    ``repro`` still resolves correctly.
    """
    parts = path.parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == package:
            rel = "/".join(parts[i + 1 :])
            dotted = [package, *parts[i + 1 : -1]]
            stem = parts[-1][: -len(".py")] if parts[-1].endswith(".py") else parts[-1]
            if stem != "__init__":
                dotted.append(stem)
            return rel, ".".join(dotted)
    return None, None


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                seen.setdefault(child, None)
        elif path.suffix == ".py":
            seen.setdefault(path, None)
    return sorted(seen)


def _load_context(path: Path, root: Path, config: LintConfig) -> ModuleContext | Finding:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        return Finding(
            path=_display(path, root),
            line=getattr(exc, "lineno", 1) or 1,
            col=0,
            rule="parse-error",
            message=f"could not parse file: {exc}",
        )
    rel, module = package_location(path, config.package)
    return ModuleContext(
        path=path,
        display=_display(path, root),
        rel=rel,
        module=module,
        source=source,
        tree=tree,
        config=config,
    )


def _display(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _suppressed(finding: Finding, source_lines: list[str]) -> bool:
    if not 1 <= finding.line <= len(source_lines):
        return False
    match = _SUPPRESS_RE.search(source_lines[finding.line - 1])
    if match is None:
        return False
    rules = {part.strip() for part in match.group(1).split(",")}
    return "all" in rules or finding.rule in rules


def _checkers():
    """``{rule: check}`` for every checker module."""
    # Imported lazily so checker modules can import this one freely.
    from repro.lint import (  # noqa: F401  (registry import)
        atomic_write,
        clock_seam,
        lock_discipline,
        private_access,
        sorted_iter,
    )

    return {
        mod.RULE: mod.check
        for mod in (clock_seam, atomic_write, sorted_iter, lock_discipline, private_access)
    }


def all_rules() -> tuple[str, ...]:
    return tuple(sorted(_checkers()))


def run_lint(
    paths: list[Path],
    *,
    config: LintConfig = DEFAULT_CONFIG,
    rules: tuple[str, ...] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Run the selected checkers over ``paths`` and return sorted findings.

    ``rules=None`` runs everything.  ``root`` anchors the displayed paths
    (defaults to the current working directory).  Inline suppressions are
    already applied; baseline subtraction is the caller's job
    (:func:`apply_baseline`) so ``--write-baseline`` can see raw findings.
    """
    checkers = _checkers()
    selected = set(checkers) if rules is None else set(rules)
    unknown = selected - set(checkers)
    if unknown:
        raise ValueError(f"unknown lint rule(s): {', '.join(sorted(unknown))}")

    root = Path.cwd() if root is None else root
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        ctx = _load_context(path, root, config)
        if isinstance(ctx, Finding):
            findings.append(ctx)
            continue
        lines = ctx.source.splitlines()
        for rule in sorted(selected):
            for finding in checkers[rule](ctx):
                if not _suppressed(finding, lines):
                    findings.append(finding)

    return sorted(findings)


# --------------------------------------------------------------------------
# baseline handling


def load_baseline(path: Path) -> set[str]:
    """Read a baseline file into a set of :meth:`Finding.key` strings."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "suppressed" not in data:
        raise ValueError(f"{path}: not a lint baseline (missing 'suppressed')")
    keys = set()
    for entry in data["suppressed"]:
        keys.add(f"{entry['rule']}:{entry['path']}:{entry['message']}")
    return keys


def apply_baseline(findings: list[Finding], keys: set[str]) -> list[Finding]:
    return [finding for finding in findings if finding.key() not in keys]


def write_baseline(findings: list[Finding], path: Path) -> None:
    entries = [
        {"rule": f.rule, "path": f.path, "message": f.message} for f in findings
    ]
    payload = {"version": 1, "suppressed": entries}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# rendering


def render_text(findings: list[Finding]) -> str:
    if not findings:
        return "repro lint: clean\n"
    lines = [finding.render() for finding in findings]
    lines.append(f"repro lint: {len(findings)} finding(s)")
    return "\n".join(lines) + "\n"


def render_json(findings: list[Finding]) -> str:
    payload = {
        "findings": [finding.as_json() for finding in findings],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
