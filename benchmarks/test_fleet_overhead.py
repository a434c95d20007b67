"""Benchmark — lease-driver overhead over the serial sharded sweep.

The fleet driver adds one lease claim (an ``O_EXCL`` create), a heartbeat
thread and one lease release around every chunk.  This benchmark runs the
same small diameter-6 manifest through :func:`repro.otis.sweep.run_sweep`
(the serial chunk loop) and through :func:`repro.fleet.run_fleet` (claim →
run → publish → release) and, with ``--write-bench``, records both wall
times in ``BENCH_table1.json`` — the claim protocol is supposed to cost milliseconds
per chunk, not to tax the search itself.

Correctness first, as everywhere: both stores must merge to byte-identical
rows before any timing is recorded.
"""

import time
from pathlib import Path

import pytest

from repro.fleet import SweepFleetJob, run_fleet
from repro.otis.sweep import ChunkManifest, ChunkStore, merge_sweep, run_sweep

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_table1.json"

pytestmark = pytest.mark.table1


@pytest.mark.benchmark(group="fleet")
def test_fleet_driver_overhead_diameter_6(benchmark, once, tmp_path, bench_json):
    manifest = ChunkManifest.build(2, 6, range(60, 71), chunk_size=2)

    serial_store = ChunkStore(tmp_path / "serial")
    start = time.perf_counter()
    run_sweep(manifest, serial_store)
    serial_seconds = time.perf_counter() - start

    fleet_store = ChunkStore(tmp_path / "fleet")
    job = SweepFleetJob(manifest, fleet_store)
    start = time.perf_counter()
    outcome = once(benchmark, run_fleet, job, ttl=30.0)
    fleet_seconds = time.perf_counter() - start

    # Correctness: every chunk ran exactly once, merges are byte-identical.
    assert outcome["complete"] and not outcome["lost"]
    assert sorted(outcome["ran"]) == sorted(c.chunk_id for c in manifest.chunks)
    assert (
        merge_sweep(manifest, fleet_store).rows
        == merge_sweep(manifest, serial_store).rows
    )

    per_chunk_ms = (
        (fleet_seconds - serial_seconds) / len(manifest.chunks) * 1000.0
    )
    bench_json(
        _BENCH_PATH,
        "fleet_driver_overhead_diameter_6",
        {
            "chunks": len(manifest.chunks),
            "serial_s": round(serial_seconds, 4),
            "fleet_s": round(fleet_seconds, 4),
            "lease_overhead_ms_per_chunk": round(per_chunk_ms, 3),
        },
    )
