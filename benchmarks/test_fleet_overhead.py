"""Benchmark — fleet-driver overhead over the in-memory search loop.

The fleet driver adds one lease claim (a write-tmp/``os.link`` create, no
fsync), one atomic chunk publication and one lease release around every
chunk; the heartbeat is one thread per worker, started once per
``run_fleet`` call, not one per chunk.  This benchmark runs the same small diameter-6 sweep through
:func:`repro.otis.search.degree_diameter_search` (the in-memory serial chunk
loop) and through :func:`repro.fleet.run_fleet` (claim → run → publish →
release) and, with ``--write-bench``, records both wall times in
``BENCH_table1.json`` — the store and claim protocol are supposed to cost
about a millisecond per chunk, not to tax the search itself.

Correctness first, as everywhere: the fleet store must merge to the
in-memory rows before any timing is recorded.
"""

import time
from pathlib import Path

import pytest

from repro.fleet import SweepFleetJob, run_fleet
from repro.otis.search import degree_diameter_search
from repro.otis.sweep import ChunkManifest, ChunkStore, merge_sweep

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_table1.json"

pytestmark = pytest.mark.table1


@pytest.mark.benchmark(group="fleet")
def test_fleet_driver_overhead_diameter_6(benchmark, once, tmp_path, bench_json):
    manifest = ChunkManifest.build(2, 6, range(60, 71), chunk_size=2)

    start = time.perf_counter()
    serial = degree_diameter_search(2, 6, 60, 70, chunk_size=2)
    serial_seconds = time.perf_counter() - start

    fleet_store = ChunkStore(tmp_path / "fleet")
    job = SweepFleetJob(manifest, fleet_store)
    start = time.perf_counter()
    outcome = once(benchmark, run_fleet, job, ttl=30.0)
    fleet_seconds = time.perf_counter() - start

    # Correctness: every chunk ran exactly once, the merge equals the
    # in-memory rows.
    assert outcome["complete"] and not outcome["lost"]
    assert sorted(outcome["ran"]) == sorted(c.chunk_id for c in manifest.chunks)
    assert merge_sweep(manifest, fleet_store).rows == serial.rows

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
