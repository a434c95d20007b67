"""Benchmark S2 — scenario sweeps: throughput–latency Pareto curves.

The base simulator benchmarks (``BENCH_sim.json``) measure the engines on
healthy, infinite-buffer networks.  These sweeps exercise the composed
scenario layers — arrival process x finite buffers x fault plan x reroute
policy — over two topology families, the paper's layout target ``B(2, D)``
and the OTIS substitution ``H(p, q, d)``, and record throughput–latency
curves with their Pareto front into ``BENCH_scenarios.json`` at the
repository root under ``--write-bench`` (``wall_time_s`` keys feed the
bench-check gate, same scheme as every other ``BENCH_*.json``).

All tests carry the ``scenarios`` marker and are opt-in: run them with
``pytest benchmarks/test_figures_scenarios.py --run-scenarios``.
"""

from pathlib import Path

import pytest

from repro.graphs import de_bruijn
from repro.otis.h_digraph import h_digraph
from repro.simulation import (
    BufferedLinkModel,
    FaultPlan,
    HotspotArrivals,
    NetworkSimulator,
    Scenario,
    UniformArrivals,
    run_scenario_sweep,
)

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_scenarios.json"

pytestmark = pytest.mark.scenarios

RATES = (None, 1.0, 4.0)
SEEDS = range(3)


def _record(bench_json, name, sweep):
    entry = sweep.to_json()
    front = [row for row in entry["curves"] if row["pareto"]]
    assert front, "every sweep must mark a non-empty Pareto front"
    bench_json(_BENCH_PATH, name, entry)
    return entry


def test_hotspot_buffered_pareto_otis_family(bench_json):
    """Hotspot traffic into finite retry buffers on H(16, 32, 2) (n=256)."""
    graph = h_digraph(16, 32, 2)
    scenario = Scenario(
        arrivals=HotspotArrivals(
            2000, hotspot=graph.num_vertices // 2, hotspot_fraction=0.5
        ),
        link=BufferedLinkModel(capacity=4, on_full="retry"),
    )
    sweep = run_scenario_sweep(graph, scenario, rates=RATES, seeds=SEEDS)
    entry = _record(bench_json, "hotspot_buffered_H(16,32,2)", sweep)
    # every message either drains or exhausts its retry budget — no limbo
    for row in entry["curves"]:
        assert row["delivered"] + row["dropped_buffer"] == 3 * 2000
        assert row["retransmits"] > 0
    # rate-limited injection must lose less than the t=0 saturation burst
    by_rate = {row["rate"]: row for row in entry["curves"]}
    assert by_rate[1.0]["dropped_buffer"] < by_rate[None]["dropped_buffer"]


def test_fault_reroute_pareto_de_bruijn_family(bench_json):
    """Uniform traffic on B(2, 6) (n=64) with mid-run link failures.

    ``reroute="arc-disjoint"`` turns would-be fault drops into extra hops;
    the sweep records the degraded-mode throughput–latency trade-off.
    """
    graph = de_bruijn(2, 6)
    faults = FaultPlan.random_link_failures(graph, 8, at=20.0, seed=11)
    scenario = Scenario(
        arrivals=UniformArrivals(2000),
        faults=faults,
        reroute="arc-disjoint",
    )
    sweep = run_scenario_sweep(graph, scenario, rates=RATES, seeds=SEEDS)
    entry = _record(bench_json, "fault_reroute_B(2,6)", sweep)
    assert any(row["rerouted_hops"] > 0 for row in entry["curves"])

    # the drop policy on the same fault plan strictly loses deliveries
    dropping = run_scenario_sweep(
        graph,
        Scenario(arrivals=UniformArrivals(2000), faults=faults),
        rates=(1.0,),
        seeds=SEEDS,
    )
    drop_row = dropping.curves()[0]
    reroute_row = next(row for row in entry["curves"] if row["rate"] == 1.0)
    assert drop_row["dropped_fault"] > 0
    assert reroute_row["delivered"] > drop_row["delivered"]
    bench_json(_BENCH_PATH, "fault_drop_B(2,6)", dropping.to_json())


def test_kitchen_sink_parity_at_bench_scale(bench_json):
    """Every layer at once on H(8, 16, 2): both engines, identical stats.

    The parity contract the unit suite checks on 4-node graphs, re-asserted
    at benchmark scale with all four scenario layers composed.
    """
    graph = h_digraph(8, 16, 2)
    scenario = Scenario(
        arrivals=HotspotArrivals(800, hotspot=5, hotspot_fraction=0.4),
        link=BufferedLinkModel(capacity=2, on_full="retry", max_retries=8),
        faults=FaultPlan.random_link_failures(graph, 12, at=5.0, seed=3),
        reroute="arc-disjoint",
    )
    batched = run_scenario_sweep(graph, scenario, rates=(None, 2.0), seeds=SEEDS)
    reference = NetworkSimulator(graph, scenario=scenario)
    assert [point.stats for point in batched.points] == [
        reference.run(scenario.with_rate(rate).traffic(graph.num_vertices, rng=seed))[0]
        for rate in (None, 2.0)
        for seed in SEEDS
    ]
    entry = _record(bench_json, "kitchen_sink_H(8,16,2)", batched)
    assert entry["scenario_digest"] == scenario.digest()
