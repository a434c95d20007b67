#!/usr/bin/env python
"""Regenerate Table 1: the largest OTIS digraphs H(p, q, 2) per diameter.

The paper's Section 4.3 reports, for degree 2 and diameters 8, 9 and 10, the
node counts near the optimum that admit an ``H(p, q, 2)`` of exactly that
diameter, together with all splits ``(p, q)`` achieving them.  This script
re-runs the exhaustive search and prints the measured rows next to the
paper's, flagging any disagreement.

By default only the node counts printed in the paper are tested (fast, a few
seconds).  Pass ``--full`` to sweep the whole range from the first printed row
up to the Kautz order, which reproduces the table including the *absence* of
intermediate rows (several minutes for diameter 10).

The script then demonstrates the **resumable chunk store** of
:mod:`repro.otis.sweep` on a small diameter-6 sweep: a fleet worker
(:func:`repro.fleet.run_fleet`) fills one chunk store, the sweep is "killed"
by deleting a completed chunk file, and a relaunched worker recomputes only
that chunk (from the warm split-verdict cache) before the merge reproduces
the direct search rows exactly.  This is the same machinery
``python -m repro fleet sweep`` drives with any number of workers.

Run with:  python examples/degree_diameter_search.py [--full] [diameters...]
"""

import os
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.tables import format_table
from repro.fleet import SweepFleetJob, run_fleet
from repro.otis.search import (
    PAPER_TABLE1,
    compare_with_paper,
    degree_diameter_search,
    table1_rows,
)
from repro.otis.sweep import (
    ChunkManifest,
    ChunkStore,
    SplitVerdictCache,
    merge_sweep,
)


def run_table1_blocks(diameters: list[int], full: bool) -> None:
    for D in diameters:
        print(f"\n=== Table 1, degree 2, diameter {D} "
              f"({'full sweep' if full else 'paper rows only'}) ===")
        start = time.time()
        result = table1_rows(D, printed_rows_only=not full)
        elapsed = time.time() - start
        print(result.as_table())
        print(f"[search took {elapsed:.1f} s]")

        if D in PAPER_TABLE1:
            report = compare_with_paper(result)
            rows = [
                {
                    "n": entry["n"],
                    "paper splits": entry["paper_splits"],
                    "measured splits": entry["measured_splits"],
                    "match": "yes" if entry["match"] else "NO",
                }
                for entry in report["rows"]
            ]
            print(format_table(rows))
            print(f"all printed rows reproduced: {report['all_match']}")


def run_resumable_demo() -> None:
    """Fleet run → interrupt → rerun → merge, on a small diameter-6 sweep."""
    print("\n=== Resumable fleet sweep (d=2, D=6, n=60..70) ===")
    direct = degree_diameter_search(2, 6, 60, 70)

    with tempfile.TemporaryDirectory() as tmp:
        store = ChunkStore(Path(tmp) / "chunks")
        cache_dir = Path(tmp) / "cache"
        manifest = ChunkManifest.build(2, 6, range(60, 71), chunk_size=5)
        print(f"manifest: {len(manifest.chunks)} chunks "
              f"(code version {manifest.code_version})")

        # One fleet worker fills the store.  More workers on the same store
        # (processes or hosts) would split the chunks through lease files.
        outcome = run_fleet(SweepFleetJob(manifest, store, cache=cache_dir))
        print(f"fleet run: ran {len(outcome['ran'])} chunks")

        # "Kill" the sweep: drop one completed chunk, as if the process died
        # before publishing it.  The merge refuses to produce a partial table.
        victim = manifest.chunks[1]
        os.unlink(store.path_for(victim))
        try:
            merge_sweep(manifest, store)
        except FileNotFoundError as error:
            print(f"merge before resume correctly fails: {error}")

        # Rerun: published chunks are skipped; the lost chunk is recomputed,
        # answered entirely from the warm split-verdict cache.
        cache = SplitVerdictCache(cache_dir, 2, 6)
        outcome = run_fleet(SweepFleetJob(manifest, store, cache=cache))
        print(f"resume: ran {len(outcome['ran'])} chunk(s), "
              f"skipped {len(manifest.chunks) - len(outcome['ran'])} published, "
              f"cache hits {cache.hits}, misses {cache.misses}")

        merged = merge_sweep(manifest, store)
        print(merged.as_table())
        print(f"merged rows identical to direct search: "
              f"{merged.rows == direct.rows}")


def main() -> None:
    args = [a for a in sys.argv[1:]]
    full = "--full" in args
    diameters = [int(a) for a in args if a.isdigit()] or [8, 9, 10]

    run_table1_blocks(diameters, full)
    run_resumable_demo()


if __name__ == "__main__":
    main()
