"""Tests of the ``repro.lint`` contract checkers.

Three layers:

* **fixture snippets** — for every rule, a known-bad sample must fire and
  the repo's canonical good pattern (injected clock reference, tmp+replace
  write, sorted listing, locked LRU insert, public import) must stay
  silent.  The bad fixtures are laid out so the *default* config covers
  them, which also lets the CLI exit-code tests reuse them verbatim;
* **machinery** — inline ``# lint: disable=`` suppressions, baseline
  write/load/subtract round-trip, unknown-rule rejection, parse-error
  reporting;
* **the committed tree** — ``repro lint src/`` must exit 0 (the tree is
  lint-clean by construction: every violation the checkers surfaced was
  fixed, not baselined).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro import cli
from repro.lint import (
    DEFAULT_CONFIG,
    LintConfig,
    all_rules,
    apply_baseline,
    load_baseline,
    run_lint,
    write_baseline,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def build_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise ``{package-relative path: source}`` under ``tmp/repro``."""
    root = tmp_path / "tree"
    for rel, source in files.items():
        path = root / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def lint_tree(tmp_path, files, *, rules=None, config=DEFAULT_CONFIG):
    root = build_tree(tmp_path, files)
    return run_lint([root], config=config, rules=rules, root=root)


# ---------------------------------------------------------------------------
# bad fixtures: one per rule, all triggering under the DEFAULT config.

BAD_FIXTURES: dict[str, dict[str, str]] = {
    "clock-seam": {
        "fleet/policy.py": """
            import time

            def straggler_age(acquired):
                return time.time() - acquired
        """
    },
    "atomic-write": {
        # otis/sweep.py is in the default atomic_write_files list.
        "otis/sweep.py": """
            import json

            def publish(path, records):
                with open(path, "w") as handle:
                    json.dump(records, handle)
        """
    },
    "sorted-iteration": {
        "merge.py": """
            def chunk_names(directory):
                return [path.name for path in directory.glob("chunk-*.jsonl")]
        """
    },
    "lock-discipline": {
        "cache.py": """
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value
        """
    },
    "private-access": {
        "driver.py": """
            from repro.fleet.leases import LeaseManager

            def scan(directory):
                leases = LeaseManager(directory, ttl=60.0)
                return leases._watch
        """
    },
}


@pytest.mark.parametrize("rule", sorted(BAD_FIXTURES))
def test_bad_fixture_fires(rule, tmp_path):
    findings = lint_tree(tmp_path, BAD_FIXTURES[rule], rules=(rule,))
    assert findings, f"{rule} stayed silent on its known-bad fixture"
    assert all(f.rule == rule for f in findings)


@pytest.mark.parametrize("rule", sorted(BAD_FIXTURES))
def test_cli_exits_nonzero_on_bad_fixture(rule, tmp_path, capsys):
    root = build_tree(tmp_path, BAD_FIXTURES[rule])
    code = cli.main(
        ["lint", str(root), "--rules", rule, "--baseline", "none", "--json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] >= 1
    assert {f["rule"] for f in payload["findings"]} == {rule}


def test_all_rules_have_a_bad_fixture():
    assert set(all_rules()) == set(BAD_FIXTURES)


# ---------------------------------------------------------------------------
# good patterns: the repo's canonical shapes must stay silent.


def test_clock_seam_allows_injected_reference(tmp_path):
    findings = lint_tree(
        tmp_path,
        {
            "fleet/manager.py": """
                import time

                class Manager:
                    def __init__(self, *, clock=time.time, monotonic=time.monotonic):
                        self._clock = clock
                        self._monotonic = monotonic

                    def age(self, stamp):
                        return self._clock() - stamp
            """
        },
        rules=("clock-seam",),
    )
    assert findings == []


def test_clock_seam_ignores_uncovered_modules(tmp_path):
    findings = lint_tree(
        tmp_path,
        {"analysis/bench.py": "import time\n\nSTAMP = time.time()\n"},
        rules=("clock-seam",),
    )
    assert findings == []


def test_clock_seam_respects_declared_seams(tmp_path):
    config = LintConfig(clock_seams=(("fleet/policy.py", "straggler_age"),))
    findings = lint_tree(
        tmp_path, BAD_FIXTURES["clock-seam"], rules=("clock-seam",), config=config
    )
    assert findings == []


def test_atomic_write_allows_tmp_replace_and_append(tmp_path):
    findings = lint_tree(
        tmp_path,
        {
            "otis/sweep.py": """
                import os

                def publish(directory, name, payload):
                    tmp = directory / (name + ".tmp")
                    with open(tmp, "w") as handle:
                        handle.write(payload)
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp, directory / name)

                def append(path, line):
                    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
                    try:
                        os.write(fd, line.encode())
                    finally:
                        os.close(fd)

                def lock_fd(path):
                    return os.open(path, os.O_CREAT | os.O_RDWR, 0o644)

                def load(path):
                    with path.open() as handle:
                        return handle.read()
            """
        },
        rules=("atomic-write",),
    )
    assert findings == []


def test_atomic_write_flags_write_text_and_bare_os_open(tmp_path):
    findings = lint_tree(
        tmp_path,
        {
            "otis/sweep.py": """
                import os

                def bad_text(path, payload):
                    path.write_text(payload)

                def bad_fd(path):
                    return os.open(path, os.O_CREAT | os.O_WRONLY, 0o644)
            """
        },
        rules=("atomic-write",),
    )
    assert len(findings) == 2


def test_sorted_iteration_allows_sorted_and_len(tmp_path):
    findings = lint_tree(
        tmp_path,
        {
            "merge.py": """
                import os

                def chunk_names(directory):
                    return [p.name for p in sorted(directory.glob("chunk-*.jsonl"))]

                def split_count(directory):
                    return len(list(directory.glob("split-*.json")))

                def entry_count(directory):
                    return len(os.listdir(directory))
            """
        },
        rules=("sorted-iteration",),
    )
    assert findings == []


def test_lock_discipline_allows_locked_mutation(tmp_path):
    findings = lint_tree(
        tmp_path,
        {
            "cache.py": """
                import threading
                from collections import OrderedDict

                _LOCK = threading.RLock()
                _CACHE = OrderedDict()
                _HITS = 0

                def put(key, value):
                    global _HITS
                    with _LOCK:
                        _CACHE[key] = value
                        _CACHE.move_to_end(key)
                        _HITS += 1
                        while len(_CACHE) > 4:
                            _CACHE.popitem(last=False)

                def get(key):
                    with _LOCK:
                        return _CACHE.get(key)
            """
        },
        rules=("lock-discipline",),
    )
    assert findings == []


def test_lock_discipline_skips_modules_without_locks(tmp_path):
    findings = lint_tree(
        tmp_path,
        {
            "plain.py": """
                _REGISTRY = {}

                def register(name, value):
                    _REGISTRY[name] = value
            """
        },
        rules=("lock-discipline",),
    )
    assert findings == []


def test_lock_discipline_flags_global_rebind_outside_lock(tmp_path):
    findings = lint_tree(
        tmp_path,
        {
            "counter.py": """
                import threading

                _LOCK = threading.Lock()
                _COUNT = 0

                def bump():
                    global _COUNT
                    _COUNT += 1
            """
        },
        rules=("lock-discipline",),
    )
    assert len(findings) == 1
    assert "_COUNT" in findings[0].message


def test_private_access_flags_private_import(tmp_path):
    findings = lint_tree(
        tmp_path,
        {"driver.py": "from repro.simulation.sharding import _run_replica_chunk\n"},
        rules=("private-access",),
    )
    assert len(findings) == 1
    assert "_run_replica_chunk" in findings[0].message


def test_private_access_allows_public_use(tmp_path):
    findings = lint_tree(
        tmp_path,
        {
            "driver.py": """
                from repro.fleet.leases import LeaseManager
                from repro.simulation.sharding import run_replica_chunk

                def scan(directory):
                    leases = LeaseManager(directory, ttl=60.0)
                    if leases.is_expired(leases.path_for("c1")):
                        return leases.active()
                    return run_replica_chunk(None)

                class Wrapper:
                    def __init__(self):
                        self._mine = 1  # own privates are fine

                    def peek(self):
                        return self._mine
            """
        },
        rules=("private-access",),
    )
    assert findings == []


# ---------------------------------------------------------------------------
# machinery: suppressions, baseline, errors.


def test_inline_suppression_silences_the_line(tmp_path):
    fixture = {
        "fleet/policy.py": """
            import time

            def straggler_age(acquired):
                return time.time() - acquired  # lint: disable=clock-seam
        """
    }
    assert lint_tree(tmp_path, fixture, rules=("clock-seam",)) == []


def test_inline_suppression_is_rule_specific(tmp_path):
    fixture = {
        "fleet/policy.py": """
            import time

            def straggler_age(acquired):
                return time.time() - acquired  # lint: disable=atomic-write
        """
    }
    assert len(lint_tree(tmp_path, fixture, rules=("clock-seam",))) == 1


def test_baseline_round_trip(tmp_path):
    root = build_tree(tmp_path, BAD_FIXTURES["clock-seam"])
    findings = run_lint([root], rules=("clock-seam",), root=root)
    assert findings
    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, baseline_path)
    keys = load_baseline(baseline_path)
    assert apply_baseline(findings, keys) == []
    # An unrelated finding is not masked by the baseline.
    other = findings[0].__class__(
        path="elsewhere.py", line=1, col=0, rule="clock-seam", message="different"
    )
    assert apply_baseline([other], keys) == [other]


def test_unknown_rule_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown lint rule"):
        run_lint([tmp_path], rules=("no-such-rule",))


def test_parse_error_is_reported(tmp_path):
    root = build_tree(tmp_path, {"broken.py": "def broken(:\n"})
    findings = run_lint([root], root=root)
    assert [f.rule for f in findings] == ["parse-error"]


def test_committed_baseline_is_empty():
    keys = load_baseline(Path(__file__).resolve().parents[1] / "lint-baseline.json")
    assert keys == set()


# ---------------------------------------------------------------------------
# the committed tree.


def test_committed_tree_is_lint_clean():
    assert run_lint([SRC]) == []


def test_cli_lint_src_exits_zero(capsys):
    assert cli.main(["lint", str(SRC), "--baseline", "none"]) == 0
    assert "clean" in capsys.readouterr().out
