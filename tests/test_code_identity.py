"""Chunk identity is the import closure of the module that writes the records.

``code_version()`` and ``sim_code_version()`` hash every ``repro`` file
reachable from ``otis/sweep.py`` / ``simulation/sharding.py`` through any
``import`` statement, lazy imports inside functions included.  These tests
pin the three properties that make that identity trustworthy:

* the line scanner sees exactly the imports a full parse sees, on every
  file of the package;
* the closure covers the result-defining code — every file the old
  hand-kept source lists named, and a lazy import added later;
* the digest is a pure function of the file bytes: no hash seed, set order
  or install location reaches it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.otis.sweep import (
    _imported_names,
    code_version,
    fingerprint_closure,
    import_closure,
)
from repro.simulation.sharding import sim_code_version

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
SWEEP = PACKAGE / "otis" / "sweep.py"
SHARDING = PACKAGE / "simulation" / "sharding.py"
SOURCES = sorted(
    path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py")
)

#: The hand-kept lists the closure replaced (verdict and simulator records).
OLD_VERDICT_SOURCES = (
    "graphs/digraph.py",
    "graphs/traversal.py",
    "graphs/apsp.py",
    "graphs/moore.py",
    "otis/h_digraph.py",
    "otis/search.py",
    "otis/sweep.py",
    "kernels/__init__.py",
    "kernels/native.py",
)
OLD_SIM_SOURCES = (
    "words.py",
    "permutations.py",
    "core/alphabet_digraph.py",
    "core/checks.py",
    "core/isomorphisms.py",
    "graphs/digraph.py",
    "graphs/apsp.py",
    "graphs/generators.py",
    "otis/sweep.py",
    "routing/paths.py",
    "routing/routers.py",
    "simulation/events.py",
    "simulation/network.py",
    "simulation/scenarios.py",
    "simulation/sharding.py",
    "simulation/workloads.py",
    "kernels/__init__.py",
    "kernels/native.py",
)


def parsed_names(source: str) -> set[str]:
    """The scanner's vocabulary, computed from a full ``ast`` parse."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("relative", SOURCES)
def test_line_scan_matches_the_parse(relative):
    source = (PACKAGE / relative).read_text(encoding="utf-8")
    assert _imported_names(source) == parsed_names(source)


def test_line_scan_handles_comments_and_nesting():
    source = (
        "import os, repro.words as w  # trailing\n"
        "from repro.lint import (  # noqa: F401  (registry import)\n"
        "    atomic_write,  # a comment with ) inside\n"
        "    clock_seam,\n"
        ")\n"
        "def lazy():\n"
        "    from repro.graphs.apsp import sweep as s, batched\n"
        "\n"
        "text = 'an important word, not an import'\n"
    )
    expected = {
        "os",
        "repro.words",
        "repro.lint.atomic_write",
        "repro.lint.clock_seam",
        "repro.graphs.apsp.sweep",
        "repro.graphs.apsp.batched",
    }
    assert _imported_names(source) == parsed_names(source) == expected


@pytest.mark.parametrize(
    "root, old_list",
    [(SWEEP, OLD_VERDICT_SOURCES), (SHARDING, OLD_SIM_SOURCES)],
)
def test_closure_covers_the_old_hand_list(root, old_list):
    closure = import_closure(root)
    assert set(old_list) <= set(closure)
    assert list(closure) == sorted(set(closure))
    assert root.relative_to(PACKAGE).as_posix() in closure
    # The root package namespace is never part of an identity.
    assert "__init__.py" not in closure


def test_lazy_import_joins_the_closure_and_moves_the_fingerprint(tmp_path):
    """An import inside a function still renames every chunk.

    A future edit adds ``import repro.analysis.tables`` inside a function
    of ``otis/search.py`` (verdict-defining code).  The file joins the
    verdict closure and the fingerprint moves, with no list to update.
    """
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    root = copy / "otis" / "sweep.py"
    assert "analysis/tables.py" not in import_closure(root)
    # The digest hashes package-relative paths: a relocated copy agrees.
    before = fingerprint_closure(root)
    assert before == fingerprint_closure(SWEEP)

    search = copy / "otis" / "search.py"
    search.write_text(
        search.read_text(encoding="utf-8")
        + "\n\ndef _lazy_tables():\n    import repro.analysis.tables\n",
        encoding="utf-8",
    )
    fingerprint_closure.cache_clear()
    assert "analysis/tables.py" in import_closure(root)
    assert fingerprint_closure(root) != before


def test_fingerprint_moves_with_a_closure_file(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    root = copy / "simulation" / "sharding.py"
    before = fingerprint_closure(root)
    assert before == fingerprint_closure(SHARDING)
    generators = copy / "graphs" / "generators.py"
    generators.write_text(
        generators.read_text(encoding="utf-8") + "\n", encoding="utf-8"
    )
    fingerprint_closure.cache_clear()
    assert fingerprint_closure(root) != before


def test_versions_agree_across_hash_seeds():
    """Set order never reaches the digest: the closure is sorted first."""
    script = (
        "from repro.otis.sweep import code_version\n"
        "from repro.simulation.sharding import sim_code_version\n"
        "print(code_version(), sim_code_version())\n"
    )
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(result.stdout.split())
    assert outputs[0] == outputs[1] == [code_version(), sim_code_version()]
