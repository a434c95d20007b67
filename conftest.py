"""Repository-wide pytest configuration.

All custom markers are registered here — in one place — so the test tree and
the benchmark harness agree on their meaning:

* ``table1`` — Table 1 reproduction benchmarks.  They run by default (they
  are the paper's headline claim) and can be deselected with
  ``-m "not table1"``.
* ``sim`` — slow simulator workload sweeps (the 100k-message engine
  benchmarks).  These are opt-in: they are skipped unless ``--run-sim`` is
  passed (or the marker is selected explicitly with ``-m sim``), so the
  tier-1 suite keeps running only the fast simulator parity subset.
* ``sweep`` — slow end-to-end fleet-sweep exercises (kill/resume over a
  real Table 1 block).  Opt-in exactly like ``sim``, via ``--run-sweep`` or
  ``-m sweep``; the fast sweep unit tests (manifest determinism, cache
  semantics, small fleet-worker parity) run unconditionally.
* ``scenarios`` — throughput–latency Pareto sweeps over composed failure
  and congestion scenarios (``BENCH_scenarios.json``).  Opt-in via
  ``--run-scenarios`` or ``-m scenarios``; the fast scenario parity tests
  in ``tests/test_scenarios.py`` run unconditionally.
* ``serve`` — route-query service load benchmarks (the ``repro serve
  bench`` replay runs that write ``BENCH_serve.json``).  Opt-in via
  ``--run-serve`` or ``-m serve``; the fast serve parity and protocol tests
  in ``tests/test_serve.py`` run unconditionally.
* ``benchcheck`` — compares the working-tree ``BENCH_*.json`` files against
  the committed versions and fails on a >2x wall-time regression of any
  existing key (``repro.analysis.bench_check``).  Opt-in via
  ``--run-bench-check`` or ``-m benchcheck``; meant to run right after a
  benchmark session rewrote the BENCH files.
* ``chaos`` — the full seeded fault-injection sweeps (hundreds of fault
  schedules against the chunk store, sweep resume and the lease protocol;
  see docs/chaos.md).  Opt-in via ``--run-chaos`` or
  ``-m chaos``; a fast fixed-seed subset in ``tests/test_chaos.py`` runs
  unconditionally.

The benchmarks under ``benchmarks/`` write their numbers into the
``BENCH_*.json`` files at the repository root only when ``--write-bench`` is
passed; a plain run checks every reproduction but leaves the tree clean.

The ``fleet_processes`` fixture runs N fleet worker processes on one chunk
store — the way a chunk store runs in parallel.  The ``router_gate`` fixture
holds a served router's calls on an event, so the serve tests can pin
queries in flight without timing assumptions.
"""

import threading
import time

import pytest

MARKERS = [
    "table1: Table 1 reproduction benchmarks (deselect with -m 'not table1')",
    "sim: slow simulator workload sweeps (opt-in: pass --run-sim or -m sim)",
    "sweep: slow end-to-end fleet-sweep runs (opt-in: pass --run-sweep or -m sweep)",
    "scenarios: scenario Pareto-curve benchmarks "
    "(opt-in: pass --run-scenarios or -m scenarios)",
    "serve: route-query service load benchmarks "
    "(opt-in: pass --run-serve or -m serve)",
    "benchcheck: BENCH_*.json wall-time regression gate "
    "(opt-in: pass --run-bench-check or -m benchcheck)",
    "chaos: full seeded fault-injection sweeps "
    "(opt-in: pass --run-chaos or -m chaos)",
]

#: marker name -> the command-line flag that opts it in.
_OPT_IN = {
    "sim": "--run-sim",
    "sweep": "--run-sweep",
    "scenarios": "--run-scenarios",
    "serve": "--run-serve",
    "benchcheck": "--run-bench-check",
    "chaos": "--run-chaos",
}


def pytest_addoption(parser):
    parser.addoption(
        "--run-sim",
        action="store_true",
        default=False,
        help="run the slow 'sim'-marked simulator workload sweeps",
    )
    parser.addoption(
        "--run-sweep",
        action="store_true",
        default=False,
        help="run the slow 'sweep'-marked end-to-end fleet-sweep tests",
    )
    parser.addoption(
        "--run-scenarios",
        action="store_true",
        default=False,
        help="run the 'scenarios'-marked scenario Pareto-curve benchmarks",
    )
    parser.addoption(
        "--run-serve",
        action="store_true",
        default=False,
        help="run the 'serve'-marked route-query service load benchmarks",
    )
    parser.addoption(
        "--run-bench-check",
        action="store_true",
        default=False,
        help="run the 'benchcheck'-marked BENCH_*.json regression gate",
    )
    parser.addoption(
        "--run-chaos",
        action="store_true",
        default=False,
        help="run the 'chaos'-marked full seeded fault-injection sweeps",
    )
    parser.addoption(
        "--write-bench",
        action="store_true",
        default=False,
        help="let the benchmarks merge their results into BENCH_*.json",
    )


def pytest_configure(config):
    for line in MARKERS:
        config.addinivalue_line("markers", line)


def pytest_collection_modifyitems(config, items):
    for marker, flag in _OPT_IN.items():
        if config.getoption(flag):
            continue
        if marker in (config.option.markexpr or ""):
            continue  # explicitly selected with -m <marker>
        skip = pytest.mark.skip(reason=f"{marker} tests are opt-in: pass {flag}")
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)


@pytest.fixture
def fleet_processes():
    """``run(job, count)``: ``count`` fleet worker processes on one store.

    Spawned workers (``job`` is pickled to each) run
    :func:`repro.fleet.run_fleet` until the store completes; ``run``
    returns once every worker exited cleanly.
    """
    import multiprocessing

    from repro.fleet import run_fleet

    def run(job, count, timeout=120):
        context = multiprocessing.get_context("spawn")
        procs = [
            context.Process(target=run_fleet, args=(job,), kwargs={"ttl": 30.0})
            for _ in range(count)
        ]
        for proc in procs:
            proc.start()
        try:
            for proc in procs:
                proc.join(timeout=timeout)
                assert proc.exitcode == 0, f"fleet worker exited with {proc.exitcode}"
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
                    proc.join()

    return run


class RouterGate:
    """Holds every ``next_hops`` call of one router until :meth:`release`.

    Each call counts itself, then waits on the gate for up to ``hold_s``
    seconds — in the serve executor thread that made it — before answering
    with the real router.  The gated router is not lock-free, so the server
    never answers its rounds on the event loop.
    """

    def __init__(self, router, hold_s: float):
        self._open = threading.Event()
        self._lock = threading.Lock()
        self.calls = 0
        real = router.next_hops

        def next_hops(sources, targets):
            with self._lock:
                self.calls += 1
            self._open.wait(hold_s)
            return real(sources, targets)

        router.next_hops = next_hops
        router.lock_free = lambda: False

    def release(self) -> None:
        self._open.set()

    @staticmethod
    def wait_until(predicate, timeout: float = 10.0) -> None:
        """Poll ``predicate`` until it holds; fail after ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.001)


@pytest.fixture
def router_gate():
    """``gate(router, hold_s=30.0)``: a :class:`RouterGate` on ``router``.

    Every gate is released at teardown, so no executor thread stays blocked
    after the test.
    """
    gates = []

    def gate(router, hold_s=30.0):
        gates.append(RouterGate(router, hold_s))
        return gates[-1]

    yield gate
    for each in gates:
        each.release()
