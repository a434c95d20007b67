"""Shared fixtures and helpers for the benchmark harness.

Every benchmark corresponds to a table or figure of the paper (see the
experiment index in DESIGN.md and the measured results in EXPERIMENTS.md).
The heavy reproductions (Table 1) use ``benchmark.pedantic`` with a single
round so that ``pytest benchmarks/ --benchmark-only`` stays in the
minutes range; the micro-benchmarks (O(D) checks, layout construction) use
the default calibrated timing.

Markers (``table1``, ``sim``) are registered once, in the repository-root
``conftest.py``.

A session-scoped autouse fixture warms the active kernel backend
(:mod:`repro.kernels`) before the first benchmark runs, so one-time
compilation / warm-up cost can never land inside a timed region and
masquerade as a wall-time regression in the ``BENCH_*.json`` keys.

Benchmarks record their numbers through the ``bench_json`` fixture, which
merges into the ``BENCH_*.json`` files only under ``--write-bench``.
"""

import pytest

from repro import kernels
from repro.analysis.tables import merge_bench_json


@pytest.fixture(scope="session", autouse=True)
def warm_kernel_backend():
    """Pay kernel compilation and warm-up once, before anything is timed."""
    return kernels.warmup()


def _skip_write(path, name, entry):
    return None


@pytest.fixture(scope="session")
def bench_json(request):
    """``merge_bench_json`` under ``--write-bench``, else a no-op."""
    if request.config.getoption("--write-bench"):
        return merge_bench_json
    return _skip_write


def run_once(benchmark, func, *args, **kwargs):
    """Run an expensive reproduction exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    """Fixture exposing :func:`run_once`."""
    return run_once
