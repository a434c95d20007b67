"""Benchmark T1 — Table 1: degree–diameter search over OTIS digraphs.

Regenerates the three blocks of the paper's Table 1 (degree 2, diameters 8, 9
and 10).  To keep the harness in the minutes range the diameter-9 and -10
blocks only test the node counts the paper prints (the full sweep, which also
confirms the *absence* of intermediate rows, is run by
``examples/degree_diameter_search.py --full``); the diameter-8 block sweeps
the full printed range 253..384.

Every benchmark asserts that the measured splits agree with the paper rows —
the reproduction claim, not just a timing.

With ``--write-bench`` each run also merges its wall time and the rows found
into ``BENCH_table1.json`` at the repository root, so the performance
trajectory of the search path is tracked across PRs.  All three tests carry the
``table1`` marker; deselect them with ``-m "not table1"`` when only the fast
tier-1 suite is wanted.
"""

import time
from pathlib import Path

import pytest

from repro import kernels
from repro.otis.search import compare_with_paper, table1_rows

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_table1.json"

pytestmark = pytest.mark.table1


def _record(bench_json, name, result, seconds):
    """Merge one benchmark entry into BENCH_table1.json."""
    bench_json(
        _BENCH_PATH,
        name,
        {
            "diameter": result.diameter,
            "rows_found": len(result.rows),
            "largest_n": result.largest_n,
            "rows": [
                [n, [list(split) for split in splits]] for n, splits in result.rows
            ],
            "wall_time_s": round(seconds, 4),
            "kernel_backend": kernels.active_backend(),
        },
    )


def _timed(once, benchmark, *args, **kwargs):
    start = time.perf_counter()
    result = once(benchmark, table1_rows, *args, **kwargs)
    return result, time.perf_counter() - start


@pytest.mark.benchmark(group="table1")
def test_table1_diameter_8_full_range(benchmark, once, bench_json):
    result, seconds = _timed(once, benchmark, 8)
    report = compare_with_paper(result)
    assert report["all_match"], report
    # the largest degree-2 diameter-8 OTIS digraph found is the Kautz digraph
    assert result.largest_n == 384
    _record(bench_json, "diameter_8_full_range", result, seconds)


@pytest.mark.benchmark(group="table1")
def test_table1_diameter_9_printed_rows(benchmark, once, bench_json):
    result, seconds = _timed(once, benchmark, 9, printed_rows_only=True)
    report = compare_with_paper(result)
    assert report["all_match"], report
    assert result.splits_for(512) == [(2, 512), (8, 128)]
    assert result.largest_n == 768
    _record(bench_json, "diameter_9_printed_rows", result, seconds)


@pytest.mark.benchmark(group="table1")
def test_table1_diameter_10_printed_rows(benchmark, once, bench_json):
    result, seconds = _timed(once, benchmark, 10, printed_rows_only=True)
    report = compare_with_paper(result)
    assert report["all_match"], report
    assert result.splits_for(1024) == [
        (2, 1024),
        (4, 512),
        (8, 256),
        (16, 128),
        (32, 64),
    ]
    assert result.largest_n == 1536
    _record(bench_json, "diameter_10_printed_rows", result, seconds)
