"""Benchcheck smoke — kernel warm-up must never hide inside benchmark keys.

The compiled backend (:mod:`repro.kernels`) pays a one-time cost on first
use: the C backend compiles a shared object once per source digest (then
dlopens from the on-disk cache).  If that cost
ever landed inside a timed benchmark region, a wall-time key in
``BENCH_sim.json`` / ``BENCH_table1.json`` would swing by the warm-up
amount and the 2x regression gate would fire (or, worse, mask a real
regression).

Two defences, both exercised here under the ``benchcheck`` marker so they
run in the same opt-in session as the gate itself
(``pytest benchmarks/ --run-bench-check``):

* ``benchmarks/conftest.py`` installs a session-scoped autouse fixture
  calling :func:`repro.kernels.warmup` before the first benchmark — this
  module asserts the fixture resolves and that a *second* warm-up (what
  every timed region effectively sees) is cheap;
* every available backend is compiled end to end once, so a benchmark
  session that flips ``REPRO_KERNELS`` between runs still never times a
  cold backend.
"""

import time

import pytest

from repro import kernels

pytestmark = pytest.mark.benchcheck

#: a generous bound for an *already warm* backend: the second warmup() call
#: only runs tiny (n <= 8) end-to-end problems, so anything slower than this
#: means compilation leaked past the first call.
_WARM_SECONDS = 1.0


def test_session_fixture_already_warmed(warm_kernel_backend):
    assert warm_kernel_backend in kernels.KERNEL_BACKENDS
    assert warm_kernel_backend == kernels.active_backend()


def test_every_available_backend_compiles_once():
    for backend in kernels.available_backends():
        assert kernels.warmup(backend) == backend


def test_rewarm_is_cheap():
    """After the session fixture, warm-up cost is gone from timed regions."""
    start = time.perf_counter()
    kernels.warmup()
    assert time.perf_counter() - start < _WARM_SECONDS
