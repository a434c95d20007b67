"""Self-tests of the benchmark (tiny sizes; about a minute in total).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run as bench_run  # noqa: E402
from perfbench.seams import LAYERS  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS, Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "kernels"))
    return tmp_path


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--size", "tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        layers = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert layers + values["bench.unattributed_s"] == pytest.approx(
            values["bench.traced_wall_s"], rel=1e-6
        )
    else:
        assert all(value > 0 for value in values.values())
    assert not (ROOT / ".perfbench-tmp").exists()


def test_stripped_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "search", "--seed", "0", "--seconds", "1",
                    cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _run_inprocess(name: str, tmp: Path, seed: int = 0, seconds: float = 0.3) -> Tally:
    rec = SpanRecorder("selftest")
    workload = WORKLOADS[name]("tiny", seed, rec, tmp=tmp)
    tally = Tally()
    try:
        workload.setup()
        workload.prepare()
        workload.run(seconds, tally)
    finally:
        workload.close()
    return tally


def test_dropped_table1_row_is_a_failure(kernel_cache, monkeypatch):
    from repro.otis import search

    real = search.table1_rows

    def drop_last_row(*args, **kwargs):
        result = real(*args, **kwargs)
        return type(result)(result.d, result.diameter, result.rows[:-1], result.n_range)

    monkeypatch.setattr(search, "table1_rows", drop_last_row)
    tally = _run_inprocess("search", kernel_cache)
    assert tally.failed > 0
    assert all(error.startswith("Table 1 block") for error in tally.errors)


def test_flipped_next_hop_is_a_failure(kernel_cache, monkeypatch):
    from repro.serve import server

    real = server.answer_query

    def flip_one_hop(query, router, **kwargs):
        reply = real(query, router, **kwargs)
        if "hops" in reply and reply["hops"]:
            reply["hops"][0] = (reply["hops"][0] + 1) % router.num_vertices()
        return reply

    monkeypatch.setattr(server, "answer_query", flip_one_hop)
    tally = _run_inprocess("serve_queries", kernel_cache)
    assert tally.failed > 0
    assert tally.failed / tally.attempted > 0


def test_changed_message_is_a_failure(kernel_cache, monkeypatch):
    from repro.simulation import BatchedNetworkSimulator

    real = BatchedNetworkSimulator.run

    def one_more_hop(self, traffic, **kwargs):
        stats, messages = real(self, traffic, **kwargs)
        messages[-1].hops += 1
        return stats, messages

    monkeypatch.setattr(BatchedNetworkSimulator, "run", one_more_hop)
    tally = _run_inprocess("simulate", kernel_cache)
    assert tally.attempted > 0 and tally.failed == tally.attempted


def test_failed_output_makes_the_command_fail(kernel_cache, monkeypatch, capsys):
    from repro.otis import search

    real = search.table1_rows

    def drop_first_row(*args, **kwargs):
        result = real(*args, **kwargs)
        return type(result)(result.d, result.diameter, result.rows[1:], result.n_range)

    monkeypatch.setattr(search, "table1_rows", drop_first_row)
    code = bench_run.main(["--workload", "search", "--seconds", "0.2",
                           "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_same_seed_gives_the_same_inputs(kernel_cache):
    def trace(seed):
        workload = WORKLOADS["serve_queries"]("tiny", seed, SpanRecorder("t"))
        workload.prepare()
        return [(r.op, r.topology, r.pairs.tobytes()) for r in workload.trace]

    assert trace(5) == trace(5)
    assert trace(5) != trace(6)
    sim = WORKLOADS["simulate"]("tiny", 5, SpanRecorder("t"))
    for index in range(4):
        assert sorted(sim.pass_slots(index)) == list(range(sim.sizes["pool"]))


def test_self_times_add_up_across_threads():
    ticks = iter(range(100))
    rec = SpanRecorder("unit", clock=lambda: float(next(ticks)))
    entered, release = threading.Event(), threading.Event()

    def other_thread():
        with rec.span("serve.thread"):  # 4..6
            entered.set()
            release.wait(5)

    rec.start_window()  # t=0
    worker = threading.Thread(target=other_thread)
    with rec.span("otis.outer"):  # 1..5
        with rec.span("graphs.inner"):  # 2..3
            pass
        worker.start()
        entered.wait(5)
    release.set()
    worker.join(5)
    assert not worker.is_alive()
    rec.stop_window()  # t=7
    summary = rec.summary()
    spans = summary["spans"]
    assert spans["graphs.inner"]["self_s"] == pytest.approx(1.0)
    # 4..5 is shared by the two threads' innermost spans, half each.
    assert spans["otis.outer"]["self_s"] == pytest.approx(2.5)
    assert spans["serve.thread"]["self_s"] == pytest.approx(1.5)
    assert summary["covered_s"] == pytest.approx(5.0)
    assert summary["wall_s"] == pytest.approx(7.0)
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(summary["covered_s"])


def test_tail_latency_needs_ten_samples_beyond():
    assert bench_run.tail_latency([1.0] * 9 + [100.0]) == 1.0  # median: no tail
    assert bench_run.tail_latency(list(range(1, 2001))) == 1980  # p99
    assert bench_run.tail_latency(list(range(1, 201))) == 190  # p95: 10 beyond
