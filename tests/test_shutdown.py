"""Graceful-shutdown coverage: SIGTERM against real serve/fleet processes.

Two promises, one per subsystem:

* ``repro serve run`` on SIGTERM stops admitting, drains in-flight work for
  up to ``--drain-grace`` seconds, prints ``drained, stopped`` and exits 0 —
  so supervisors and rolling restarts never cut answered connections short;
* a fleet worker (``handle_sigterm=True``, what the CLI passes) converts
  SIGTERM into :class:`FleetTerminated`: the lease it holds is released
  *promptly* (unlinked, not left to TTL reclaim) and the outcome reports
  ``terminated=True`` with the store still perfectly resumable.

The subprocess tests exercise the actual signal handlers over a real
process boundary; the in-process test pins the driver-level semantics.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fleet import SweepFleetJob, run_fleet
from repro.otis.search import degree_diameter_search
from repro.otis.sweep import ChunkManifest, ChunkStore

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or os.name == "nt",
    reason="POSIX signal semantics required",
)


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def wait_for_line(process, needle, timeout=30):
    """Read stdout lines until one contains ``needle``; returns the line."""
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                break
            continue
        lines.append(line)
        if needle in line:
            return line
    process.kill()
    raise AssertionError(
        f"never saw {needle!r} in subprocess output:\n{''.join(lines)}"
    )


class TestServeRunSigterm:
    def test_sigterm_drains_and_exits_zero(self):
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "run",
                "--topology",
                "t=B(2,3)",
                "--port",
                "0",
                "--drain-grace",
                "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=subprocess_env(),
        )
        try:
            banner = wait_for_line(process, "serving on http://")
            port = int(banner.rsplit(":", 1)[1])
            # The server is genuinely up: answer one query, then terminate.
            from repro.serve.bench import http_request

            reply = http_request(
                "127.0.0.1",
                port,
                "POST",
                "/v1/query",
                {"op": "next-hop", "topology": "t", "pairs": [[0, 1]]},
            )
            assert reply["ok"] is True
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "draining..." in out
        assert "drained, stopped" in out


class TestFleetWorkerSigterm:
    def fleet_job(self, tmp_path):
        manifest = ChunkManifest.build(2, 6, range(60, 71), chunk_size=4)
        store = ChunkStore(tmp_path / "sweep")
        return manifest, store, SweepFleetJob(manifest, store)

    def test_inprocess_sigterm_releases_the_lease_promptly(self, tmp_path):
        manifest, store, job = self.fleet_job(tmp_path)
        original = job.run_chunk
        calls = []

        def run_then_die(chunk):
            records = original(chunk)
            calls.append(chunk.chunk_id)
            if len(calls) == 2:
                # delivered at the next interpreter checkpoint, i.e. inside
                # the driver loop while the second chunk's lease is held
                os.kill(os.getpid(), signal.SIGTERM)
            return records

        job.run_chunk = run_then_die
        outcome = run_fleet(job, ttl=600, heartbeat=60, handle_sigterm=True)
        assert outcome["terminated"] is True
        assert not outcome["complete"]
        assert len(calls) == 2
        # Prompt release: with ttl=600 nothing expires for 10 minutes, so
        # the only way the lease directory is empty is an explicit unlink.
        assert list((store.directory / "leases").glob("*.lease")) == []
        # SIGTERM restored to the previous handler afterwards.
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    def test_terminated_store_resumes_to_the_exact_result(self, tmp_path):
        manifest, store, job = self.fleet_job(tmp_path)
        original = job.run_chunk

        def die_after_first(chunk):
            records = original(chunk)
            os.kill(os.getpid(), signal.SIGTERM)
            return records

        job.run_chunk = die_after_first
        assert run_fleet(job, ttl=600, heartbeat=60, handle_sigterm=True)[
            "terminated"
        ]
        # A fresh worker picks up where the terminated one stopped.
        resumed = SweepFleetJob(manifest, store)
        outcome = run_fleet(resumed, ttl=600, heartbeat=60)
        assert outcome["complete"]
        assert not outcome["terminated"]
        assert resumed.merge().rows == degree_diameter_search(2, 6, 60, 70).rows

    def test_subprocess_sigterm_exits_cleanly_and_releases(self, tmp_path):
        # A real worker process: SIGTERM lands mid-chunk (the chunk sleeps),
        # the worker must release its lease and exit 0 within seconds.
        script = tmp_path / "worker.py"
        script.write_text(
            """
import json, sys, time
from repro.fleet import SweepFleetJob, run_fleet
from repro.otis.sweep import ChunkManifest, ChunkStore

manifest = ChunkManifest.build(2, 6, range(60, 71), chunk_size=4)
store = ChunkStore(sys.argv[1])
job = SweepFleetJob(manifest, store)
original = job.run_chunk

def slow(chunk):
    print("chunk-started", flush=True)
    time.sleep(60)
    return original(chunk)

job.run_chunk = slow
outcome = run_fleet(job, ttl=600, heartbeat=1, handle_sigterm=True)
print("outcome " + json.dumps({"terminated": outcome["terminated"]}), flush=True)
"""
        )
        store_dir = tmp_path / "sweep"
        process = subprocess.Popen(
            [sys.executable, str(script), str(store_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=subprocess_env(),
        )
        try:
            wait_for_line(process, "chunk-started")
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        outcome_line = [l for l in out.splitlines() if l.startswith("outcome ")]
        assert outcome_line, out
        assert json.loads(outcome_line[0][len("outcome "):])["terminated"]
        # The lease the worker held mid-chunk is gone without TTL reclaim.
        assert list((store_dir / "leases").glob("*.lease")) == []
