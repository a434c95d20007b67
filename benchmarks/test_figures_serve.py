"""Benchmark V1 — route-query service throughput and tail latency.

Replays :func:`~repro.simulation.workloads.make_workload` traffic against a
self-hosted :class:`~repro.serve.server.RouteQueryServer` (the exact stack
``repro serve run`` deploys) and records throughput plus client-side tail
latency into ``BENCH_serve.json`` at the repository root (with
``--write-bench``).  The ``*_s`` keys
feed the bench-check wall-time gate and the ``qps`` keys feed its
throughput direction (fresh < committed / 2 fails), so a serve-layer
slowdown trips the same tripwire as a simulator regression.

The headline claim: micro-batched vectorised dispatch sustains >=100k
next-hop queries/sec through the full HTTP + JSON + asyncio stack on one
core pair.  ``test_closed_form_scales_past_dense_reach`` makes the paper's
point operational — the closed-form router serves a topology whose dense
table would not fit, at the same order of throughput.

All tests carry the ``serve`` marker and are opt-in: run them with
``pytest benchmarks/test_figures_serve.py --run-serve``.
"""

from pathlib import Path

import pytest

from repro.serve import RouterRegistry, ServerThread, run_bench

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

pytestmark = pytest.mark.serve

#: The acceptance floor for the headline next-hop benchmark (queries/sec).
MIN_NEXT_HOP_QPS = 100_000.0


def _bench(registry, name, **bench_kwargs):
    with ServerThread(registry) as server:
        return run_bench(server.host, server.port, topology=name, **bench_kwargs)


def test_next_hop_throughput_de_bruijn(bench_json):
    """>=100k q/s batch next-hop on B(2,10) (n=1024), closed-form router."""
    registry = RouterRegistry()
    registry.add("bench", "B(2,10)", "closed-form")
    result = _bench(
        registry,
        "bench",
        op="next-hop",
        messages=200_000,
        batch_pairs=2048,
        connections=4,
    )
    assert result.queries == 200_000
    assert result.qps >= MIN_NEXT_HOP_QPS, result.describe()
    assert result.p50_s <= result.p99_s
    bench_json(
        _BENCH_PATH, "serve_next_hop_B(2,10)_uniform", result.to_json()
    )


def test_eta_throughput_otis_hotspot(bench_json):
    """ETA queries under hotspot traffic on the H(16,32,2) OTIS row."""
    registry = RouterRegistry()
    registry.add("otis", "H(16,32,2)", "closed-form")
    result = _bench(
        registry,
        "otis",
        op="eta",
        workload="hotspot",
        messages=100_000,
        batch_pairs=2048,
        connections=4,
    )
    assert result.queries == 100_000
    # An eta answer is one compiled pass of closed-form hop counts, plus a
    # float list beside the integer one; hold it to half the next-hop floor.
    assert result.qps >= MIN_NEXT_HOP_QPS / 2, result.describe()
    bench_json(
        _BENCH_PATH, "serve_eta_H(16,32,2)_hotspot", result.to_json()
    )


def test_closed_form_scales_past_dense_reach(bench_json):
    """Serve B(2,16) (n=65536): 8GB of dense table replaced by O(n) state.

    The registry refuses nothing here — the closed-form router carries zero
    relabelling state for the de Bruijn digraph itself, so the serve layer
    routes a 65k-node topology with the same code path as a 16-node one.
    """
    registry = RouterRegistry()
    registry.add("big", "B(2,16)", "closed-form")
    assert registry.snapshot()["big"]["state_bytes"] == 0
    result = _bench(
        registry,
        "big",
        op="next-hop",
        messages=100_000,
        batch_pairs=4096,
        connections=4,
    )
    assert result.qps >= MIN_NEXT_HOP_QPS / 2, result.describe()
    bench_json(
        _BENCH_PATH, "serve_next_hop_B(2,16)_uniform", result.to_json()
    )
