#!/usr/bin/env python
"""Drive a degree–diameter sweep with the lease-based fleet driver.

The fleet driver of :mod:`repro.fleet` is the one way to run a chunk store:
any number of workers point at one shared out-dir and **claim chunks
dynamically** through atomic lease files with a TTL, so no worker is told
an index and a dead worker's chunk is reclaimed the moment its lease
expires.  One worker is the serial run; N workers on one out-dir are the
parallel run.

This script demonstrates the whole cycle on a small diameter-6 sweep:

1. two fleet worker *processes* drain one chunk store concurrently — the
   lease files are their only coordination, and no chunk runs twice;
2. a third worker "crashes" (we plant its lease with an ancient heartbeat
   and no published result), and a relaunched fleet reclaims the chunk;
3. the merged table is compared against the direct in-process search —
   byte-identical rows, whatever the claim order was.

Run with:  python examples/fleet_search.py
"""

import json
import multiprocessing
import os
import tempfile
import time
from pathlib import Path

from repro.fleet import (
    LeaseManager,
    SweepFleetJob,
    fleet_status,
    format_status,
    run_fleet,
)
from repro.otis.search import degree_diameter_search
from repro.otis.sweep import ChunkManifest, ChunkStore

D, N_MIN, N_MAX, CHUNK_SIZE = 6, 60, 70, 2
TTL = 30.0


def build_job(out_dir) -> SweepFleetJob:
    # Every worker derives the identical manifest from the shared
    # parameters - chunk ids are the coordination mechanism, the leases
    # only decide who runs which chunk.
    manifest = ChunkManifest.build(
        2, D, range(N_MIN, N_MAX + 1), chunk_size=CHUNK_SIZE
    )
    return SweepFleetJob(manifest, ChunkStore(out_dir))


def fleet_worker(out_dir, result_file: str) -> None:
    job = build_job(out_dir)
    outcome = run_fleet(job, ttl=TTL, worker_id=f"worker-{os.getpid()}")
    Path(result_file).write_text(json.dumps(outcome))


def main() -> None:
    direct = degree_diameter_search(2, D, N_MIN, N_MAX)

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "sweep"
        job = build_job(out_dir)
        print(f"fleet job: {job.describe()}")

        # --- a crashed worker: lease held, heartbeat long dead, no result.
        leases = LeaseManager(out_dir / "leases", ttl=TTL)
        victim = job.chunks()[0]
        stale = leases.try_acquire(victim.chunk_id, worker="crashed-host")
        ancient = time.time() - 3600
        os.utime(stale.path, (ancient, ancient))
        print(f"planted an expired lease of 'crashed-host' on {victim.chunk_id}")

        # --- two live workers drain the store concurrently.
        results = [Path(tmp) / "a.json", Path(tmp) / "b.json"]
        workers = [
            multiprocessing.Process(
                target=fleet_worker, args=(out_dir, str(result))
            )
            for result in results
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        outcomes = [json.loads(result.read_text()) for result in results]
        ran = [set(outcome["ran"]) for outcome in outcomes]
        for outcome in outcomes:
            print(
                f"{outcome['worker']}: ran {len(outcome['ran'])} of "
                f"{outcome['chunks']} chunks"
            )
        print(f"no chunk ran twice: {ran[0].isdisjoint(ran[1])}")
        print(
            "expired lease reclaimed: "
            f"{victim.chunk_id in (ran[0] | ran[1])}"
        )

        # --- status snapshot + merge, byte-identical to the direct search.
        print(format_status(fleet_status(job, ttl=TTL),
                            summary=job.progress_summary()))
        merged = job.merge()
        print(merged.as_table())
        print(f"fleet merge identical to direct search: "
              f"{merged.rows == direct.rows}")


if __name__ == "__main__":
    main()
