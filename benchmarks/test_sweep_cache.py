"""Benchmark — cold vs warm split-verdict cache on a Table 1 block.

The :class:`repro.otis.sweep.SplitVerdictCache` memoises ``h_diameter``
verdicts on disk, keyed by ``(p, q, d, D)`` and scoped by the code version.
This benchmark runs the diameter-8 Table 1 block twice against one cache
directory: the first (cold) run computes and records every verdict, the
second (warm) run must answer every split from disk and therefore skip the
bit-parallel all-pairs stage entirely.  With ``--write-bench`` both the
timings and the hit/miss ledger go into ``BENCH_table1.json`` so the cache's
effect is tracked across PRs alongside the raw search timings.

The assertion is semantic first (identical rows with and without the cache,
zero misses when warm) and performance second (the warm run must beat the
cold run — the acceptance criterion of the caching layer).
"""

import time
from pathlib import Path

import pytest

from repro.otis.search import compare_with_paper, table1_rows
from repro.otis.sweep import SplitVerdictCache

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_table1.json"

pytestmark = pytest.mark.table1


@pytest.mark.benchmark(group="table1")
def test_sweep_cache_cold_vs_warm_diameter_8(benchmark, once, tmp_path, bench_json):
    cache_dir = tmp_path / "verdicts"

    cold_cache = SplitVerdictCache(cache_dir, 2, 8)
    start = time.perf_counter()
    cold = table1_rows(8, cache=cold_cache)
    cold_seconds = time.perf_counter() - start
    assert cold_cache.hits == 0

    warm_cache = SplitVerdictCache(cache_dir, 2, 8)
    assert len(warm_cache) == cold_cache.misses  # every verdict was persisted
    start = time.perf_counter()
    warm = once(benchmark, table1_rows, 8, cache=warm_cache)
    warm_seconds = time.perf_counter() - start

    # Correctness: the cached run reproduces the paper block exactly.
    assert warm.rows == cold.rows
    assert compare_with_paper(warm)["all_match"]
    # Every split is answered from disk — no verdict is recomputed.
    assert warm_cache.misses == 0
    assert warm_cache.hits == cold_cache.misses
    # And that must be measurably faster than computing the verdicts.
    assert warm_seconds < cold_seconds, (
        f"warm cache run ({warm_seconds:.3f}s) not faster than cold "
        f"({cold_seconds:.3f}s)"
    )

    bench_json(
        _BENCH_PATH,
        "sweep_cache_cold_vs_warm_diameter_8",
        {
            "cold_s": round(cold_seconds, 4),
            "warm_s": round(warm_seconds, 4),
            "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
            "verdicts_cached": len(warm_cache),
            "warm_hits": warm_cache.hits,
            "warm_misses": warm_cache.misses,
        },
    )
