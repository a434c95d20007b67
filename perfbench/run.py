"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search --seed 0 --seconds 34 --trace 0

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 35, "failed": 0, "metrics": {...}}

``--trace 0`` measures the ``end_to_end`` metrics of ``BENCHMARK.json`` with
no instrumentation installed.  ``--trace 1`` installs the span recorder
(:mod:`perfbench.seams`), runs untraced passes for a third of the time and
traced passes for the rest, and reports the ``per_layer`` metrics.  The exit
code is 0 when every output was correct, 1 when any was wrong, and 2 when
the benchmark could not run at all.

Every file the run writes (the compiled-kernel cache, fleet stores) lives in
a fresh directory under ``.perfbench-tmp/`` that is removed at exit, so the
kernel cache is cold at the start of every run and compiled before anything
is timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READY = "perfbench-setup-ready"
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the self-tests")
    parser.add_argument("--spans-out", type=Path, default=None,
                        help="with --trace 1: write every span here as JSON lines")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one setup_s sample
    return parser.parse_args(argv)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_descriptor() -> dict:
    """What a result may only be compared under; ``id`` hashes the rest."""
    import numpy

    from repro import kernels

    host = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": kernels.active_backend(),
    }
    host["id"] = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()[:12]
    return host


def tail_latency(samples: list[float]) -> float:
    """The p99, or with fewer than 1000 samples the highest percentile that
    still has ten samples beyond it -- never below the median."""
    ordered = sorted(samples)
    q = min(0.99, 1.0 - 10.0 / len(ordered))
    if q <= 0.5:
        return statistics.median(ordered)
    return ordered[math.ceil(round(q * len(ordered), 9)) - 1]


def window_rates(requests: list[tuple[float, float, int, int]], size: int) -> list[float]:
    """Pairs per second of every window of ``size`` consecutive requests (by
    finish time), sliding by a twelfth of a window."""
    done = sorted(requests)
    size = min(size, len(done))
    rates = []
    for lo in range(0, len(done) - size + 1, max(1, size // 12)):
        window = done[lo:lo + size]
        span = window[-1][0] - window[0][0]
        rates.append(sum(request[2] for request in window[1:]) / span)
    return rates


def best_round_trips(requests: list[tuple[float, float, int, int]]) -> list[float]:
    """The fastest round trip of every trace position that was sent."""
    best: dict[int, float] = {}
    for _, latency, _, position in requests:
        best[position] = min(latency, best.get(position, latency))
    return list(best.values())


def _setup_samples(args) -> list[float]:
    """Spawn-to-ready seconds of fresh ``--setup-only`` processes."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != READY or code != 0:
            raise RuntimeError(f"setup-only process failed (exit {code})")
        samples.append(elapsed)
    return samples


def _setup_only(args) -> int:
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size, args.seed, SpanRecorder("setup"))
    try:
        workload.setup()
        print(READY, flush=True)
    finally:
        workload.close()
    return 0


def _end_to_end(args, workload_cls, run_dir: Path):
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import Tally

    workload = workload_cls(args.size, args.seed, SpanRecorder("untraced"), tmp=run_dir)
    tally = Tally()
    try:
        workload.setup()  # compiles the kernels into the run's cache
        setup = _setup_samples(args)
        workload.prepare()
        workload.run(args.seconds, tally)
    finally:
        workload.close()
    if tally.steps:
        # Batch workloads: the operation is one pass, rebuilt from the fastest
        # run of each of its short steps.  Ten-odd passes give no tail:
        # p99 == p50.
        pass_s = sum(min(times) for times in tally.steps.values())
        rate, p50, p99 = tally.items / tally.passes / pass_s, pass_s, pass_s
        detail = {name: [round(t, 4) for t in times] for name, times in tally.steps.items()}
    else:
        # Serve: the trace is replayed several times, so every request is a
        # step too -- latencies are over each request's fastest round trip;
        # throughput is that of the best window of one replay of the mix.
        latencies = best_round_trips(tally.requests)
        rates = window_rates(tally.requests, workload.window)
        p50, p99, rate = statistics.median(latencies), tail_latency(latencies), max(rates)
        detail = {"requests": len(tally.requests), "positions": len(latencies),
                  "window": workload.window, "items_per_s": [round(v, 1) for v in rates]}
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": rate,
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"passes": round(tally.passes, 2), "setup_s": [round(s, 4) for s in setup],
             "windows": detail}
    return values, tally, notes


def _traced(args, workload_cls, run_dir: Path):
    from perfbench import seams
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import Tally

    rec = SpanRecorder(f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
    uninstall = seams.install(rec)
    workload = workload_cls(args.size, args.seed, rec, tmp=run_dir, traced=True)
    untraced, traced = Tally(), Tally()
    cpu = 0.0
    try:
        rec.start_window()
        cpu_start = time.process_time()
        workload.setup()
        cpu += time.process_time() - cpu_start
        rec.stop_window()
        workload.prepare()
        untraced_s = args.seconds / 3.0
        workload.run(untraced_s, untraced)
        rec.start_window()
        cpu_start = time.process_time()
        workload.run(max(args.seconds - untraced_s, 0.0), traced)
        cpu += time.process_time() - cpu_start
        rec.stop_window()
    finally:
        workload.close()
        uninstall()
    if not (untraced.items and traced.items):
        raise RuntimeError("no operation completed in one of the phases")
    overhead = (traced.busy_s / traced.items) / (untraced.busy_s / untraced.items) - 1.0
    summary = rec.summary()
    extra = dict(workload.extra)
    extra.update({"process.cpu_s": cpu, "trace.overhead_ratio": overhead,
                  "bench.passes": traced.passes})
    values = seams.layer_metrics(summary, rec.counters(), extra)
    if args.spans_out is not None:
        rec.dump(args.spans_out, {"workload": args.workload, "seed": args.seed})
    merged = Tally(attempted=untraced.attempted + traced.attempted,
                   failed=untraced.failed + traced.failed,
                   errors=untraced.errors + traced.errors)
    layer_sum = sum(values[f"{layer}.self_s"] for layer in seams.LAYERS)
    notes = {"spans": sum(s["calls"] for s in summary["spans"].values()),
             "layers_plus_unattributed_s": layer_sum + values["bench.unattributed_s"]}
    return values, merged, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from a repository checkout (needs src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if args.setup_only:
        return _setup_only(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    os.environ["REPRO_KERNELS_CACHE"] = str(run_dir / "kernels")
    try:
        measure = _traced if args.trace else _end_to_end
        values, tally, notes = measure(args, workload_cls, run_dir)
        host = host_descriptor()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("# host " + json.dumps(host, sort_keys=True))
    print("# code " + json.dumps({"commit": _commit(), "source": _source_digest()}))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(notes))
    for error in tally.errors:
        print("# FAILED " + error.strip().replace("\n", "\n# "))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
