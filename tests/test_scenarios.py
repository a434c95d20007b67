"""The scenario layers: validation, composition, and cross-engine parity.

The scenario stack (:mod:`repro.simulation.scenarios`) extends the
bit-identical engine contract of ``test_simulation_parity`` to degraded
networks: finite link buffers (drop and retry policies), deterministic
fault plans, arc-disjoint rerouting and the non-uniform arrival processes.
Every composition must produce identical :class:`NetworkStats` — including
the drop/retransmit/reroute counters — and identical per-message records
(hops, arrival time, ``drop_reason``) from both engines, and the degenerate
configurations (zero-capacity buffers, a blackout at t=0) must *terminate*
with the failure surfaced in the stats, never hang.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import de_bruijn
from repro.otis.h_digraph import h_digraph
from repro.routing.routers import DenseTableRouter, Router
from repro.simulation.events import Event
from repro.simulation.network import (
    BatchedNetworkSimulator,
    BufferedLinkModel,
    LinkModel,
    NetworkSimulator,
)
from repro.simulation.scenarios import (
    ARRIVAL_KINDS,
    BurstyArrivals,
    DiurnalArrivals,
    FaultEvent,
    FaultPlan,
    HotspotArrivals,
    PermutationArrivals,
    Scenario,
    UniformArrivals,
    make_arrivals,
    run_scenario_sweep,
    validate_traffic,
)

GRAPH = h_digraph(2, 8, 4)  # 4 nodes, 16 links, parallel arcs
BIG = de_bruijn(2, 4)  # 16 nodes, no parallel arcs


class WrappingRouter(Router):
    """A router only python calls can ask: it forwards to a table router,
    so the batched engine runs its numpy path on every backend."""

    kind = "wrapping"

    def __init__(self, graph):
        self.inner = DenseTableRouter(graph)

    def next_hop(self, source, target):
        return self.inner.next_hop(source, target)

    def next_hops(self, sources, targets):
        return self.inner.next_hops(sources, targets)

    def num_vertices(self):
        return self.inner.num_vertices()

    def state_bytes(self):
        return self.inner.state_bytes()


def assert_scenario_parity(graph, scenario, seed, **run_kwargs):
    """Both engines agree on stats and every per-message record."""
    traffic = scenario.traffic(graph.num_vertices, rng=seed)
    ref_stats, ref_messages = NetworkSimulator(graph, scenario=scenario).run(
        traffic, **run_kwargs
    )
    bat_stats, bat_messages = BatchedNetworkSimulator(
        graph, scenario=scenario
    ).run(traffic, **run_kwargs)
    assert bat_stats == ref_stats
    assert len(bat_messages) == len(ref_messages)
    for ref, bat in zip(ref_messages, bat_messages):
        assert bat.ident == ref.ident
        assert bat.source == ref.source
        assert bat.destination == ref.destination
        assert bat.creation_time == ref.creation_time
        assert bat.hops == ref.hops
        assert bat.drop_reason == ref.drop_reason
        if math.isnan(ref.arrival_time):
            assert math.isnan(bat.arrival_time)
        else:
            assert bat.arrival_time == ref.arrival_time  # exact, not approx
    return ref_stats


# ---------------------------------------------------------------------------
# Fail-fast validation
# ---------------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf"), -1e-9])
    def test_validate_traffic_rejects_bad_release_times(self, bad):
        with pytest.raises(ValueError, match="release time"):
            validate_traffic([(0, 1, bad)])

    def test_validate_traffic_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_traffic([(0, 9, 0.0)], num_nodes=4)

    def test_validate_traffic_rejects_non_triples(self):
        with pytest.raises(ValueError, match="triple"):
            validate_traffic([(0, 1)])

    @pytest.mark.parametrize("engine", [NetworkSimulator, BatchedNetworkSimulator])
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_engines_reject_bad_release_times(self, engine, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine(GRAPH).run([(0, 1, bad)])

    @pytest.mark.parametrize(

        "kwargs",
        [
            {"latency": float("nan")},
            {"latency": -1.0},
            {"transmission_time": float("inf")},
            {"transmission_time": -0.5},
        ],
    )
    def test_link_model_rejects_bad_timings(self, kwargs):
        # transmission_time IS the per-message size in time units, so this
        # is the negative/NaN message-size rejection of the satellite task.
        with pytest.raises(ValueError, match="finite and non-negative"):
            LinkModel(**kwargs)

    def test_buffered_link_model_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            BufferedLinkModel(capacity=-1)
        with pytest.raises(ValueError, match="on_full"):
            BufferedLinkModel(capacity=1, on_full="explode")
        with pytest.raises(ValueError, match="retry_delay"):
            BufferedLinkModel(capacity=1, on_full="retry", retry_delay=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            BufferedLinkModel(capacity=1, on_full="retry", max_retries=-1)

    def test_fault_event_validation(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(-1.0, "link_down", 0)
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(0.0, "link_sideways", 0)
        with pytest.raises(ValueError, match="target"):
            FaultEvent(0.0, "link_down", -2)

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="reroute"):
            Scenario(reroute="psychic")
        with pytest.raises(ValueError, match="max_hops"):
            Scenario(max_hops=0)
        with pytest.raises(ValueError, match="arrivals"):
            Scenario(arrivals="uniform")

    def test_engine_rejects_link_and_scenario_together(self):
        for engine in (NetworkSimulator, BatchedNetworkSimulator):
            with pytest.raises(ValueError, match="not both"):
                engine(GRAPH, link=LinkModel(), scenario=Scenario())

    def test_fault_target_range_checked_against_topology(self):
        scenario = Scenario(faults=FaultPlan((FaultEvent(0.0, "link_down", 99),)))
        with pytest.raises(ValueError, match="out of range"):
            NetworkSimulator(GRAPH, scenario=scenario).run([(0, 1, 0.0)])

    @pytest.mark.parametrize("kind", sorted(ARRIVAL_KINDS))
    def test_arrival_kinds_constructible_and_round_trip(self, kind):
        arrivals = (
            make_arrivals(kind)
            if kind == "permutation"
            else make_arrivals(kind, num_messages=10)
        )
        payload = arrivals.to_json()
        assert payload["kind"] == kind
        rebuilt = make_arrivals(kind, **{k: v for k, v in payload.items() if k != "kind"})
        assert rebuilt == arrivals

    def test_make_arrivals_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            make_arrivals("tidal")


# ---------------------------------------------------------------------------
# Determinism and identity
# ---------------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("kind", sorted(ARRIVAL_KINDS))
    def test_traffic_is_a_pure_function_of_the_seed(self, kind):
        arrivals = (
            make_arrivals(kind)
            if kind == "permutation"
            else make_arrivals(kind, num_messages=40)
        )
        a = arrivals.traffic(16, rng=7)
        b = arrivals.traffic(16, rng=7)
        assert a == b
        assert validate_traffic(a, 16) == a

    def test_uniform_arrivals_match_make_workload_stream(self):
        # The scenario layer must consume the identical RNG stream as
        # make_workload, so existing traffic digests do not change.
        from repro.simulation.workloads import make_workload

        arrivals = UniformArrivals(num_messages=50, rate=1.5)
        assert arrivals.traffic(16, rng=3) == make_workload(
            "uniform", 16, 50, rng=3, rate=1.5
        )

    def test_digest_stable_and_sensitive(self):
        base = Scenario(arrivals=UniformArrivals(40, rate=1.0))
        assert base.digest() == Scenario(arrivals=UniformArrivals(40, rate=1.0)).digest()
        variants = [
            Scenario(arrivals=UniformArrivals(41, rate=1.0)),
            Scenario(
                arrivals=UniformArrivals(40, rate=1.0),
                link=BufferedLinkModel(capacity=4),
            ),
            Scenario(
                arrivals=UniformArrivals(40, rate=1.0),
                faults=FaultPlan.node_outage(0, at=1.0),
            ),
            Scenario(arrivals=UniformArrivals(40, rate=1.0), reroute="arc-disjoint"),
            Scenario(arrivals=UniformArrivals(40, rate=1.0), max_hops=5),
        ]
        digests = {scenario.digest() for scenario in variants}
        assert base.digest() not in digests
        assert len(digests) == len(variants)

    def test_fault_plan_sorted_and_boolish(self):
        plan = FaultPlan(
            (FaultEvent(5.0, "link_down", 1), FaultEvent(2.0, "link_up", 0))
        )
        assert [event.time for event in plan.events] == [2.0, 5.0]
        assert plan and not FaultPlan.none()

    def test_needs_event_exact(self):
        assert not Scenario().needs_event_exact()
        assert Scenario(link=BufferedLinkModel(capacity=3)).needs_event_exact()
        assert Scenario(faults=FaultPlan.node_outage(0, at=1.0)).needs_event_exact()
        assert Scenario(reroute="arc-disjoint").needs_event_exact()
        assert Scenario(max_hops=4).needs_event_exact()


# ---------------------------------------------------------------------------
# Default scenario == plain engines
# ---------------------------------------------------------------------------
def test_default_scenario_equals_plain_link_run():
    scenario = Scenario(arrivals=UniformArrivals(60, rate=1.3))
    traffic = scenario.traffic(GRAPH.num_vertices, rng=0)
    plain_stats, plain_messages = NetworkSimulator(GRAPH, link=LinkModel()).run(
        traffic
    )
    for engine in (NetworkSimulator, BatchedNetworkSimulator):
        stats, messages = engine(GRAPH, scenario=scenario).run(traffic)
        assert stats == plain_stats
        assert [m.arrival_time for m in messages] == [
            m.arrival_time for m in plain_messages
        ]


# ---------------------------------------------------------------------------
# Parity across the scenario-layer combinations
# ---------------------------------------------------------------------------
SCENARIOS = {
    "buffer-drop": Scenario(
        arrivals=HotspotArrivals(80, hotspot=3, hotspot_fraction=0.8, rate=5.0),
        link=BufferedLinkModel(capacity=1, on_full="drop"),
    ),
    "buffer-retry": Scenario(
        arrivals=HotspotArrivals(80, hotspot=3, hotspot_fraction=0.8, rate=5.0),
        link=BufferedLinkModel(
            capacity=1, on_full="retry", retry_delay=0.5, max_retries=4
        ),
    ),
    "fault-drop": Scenario(
        arrivals=UniformArrivals(80, rate=2.0),
        faults=FaultPlan.random_link_failures(GRAPH, 6, at=3.0, seed=7),
    ),
    "fault-reroute": Scenario(
        arrivals=UniformArrivals(80, rate=2.0),
        faults=FaultPlan.random_link_failures(GRAPH, 6, at=3.0, seed=7),
        reroute="arc-disjoint",
    ),
    "fault-heal": Scenario(
        arrivals=UniformArrivals(60, rate=1.0),
        faults=FaultPlan.random_link_failures(
            GRAPH, 8, at=2.0, heal_after=6.0, seed=1
        ),
        reroute="arc-disjoint",
    ),
    "bursty-kitchen-sink": Scenario(
        arrivals=BurstyArrivals(60, burst_size=6, burst_rate=6.0, gap=2.0),
        link=BufferedLinkModel(capacity=2, on_full="retry"),
        faults=FaultPlan.random_link_failures(GRAPH, 4, at=1.0, seed=2),
        reroute="arc-disjoint",
    ),
    "diurnal-ttl": Scenario(
        arrivals=DiurnalArrivals(60, peak_rate=3.0, trough_rate=0.3, period=10.0),
        max_hops=3,
    ),
    "permutation-buffers": Scenario(
        arrivals=PermutationArrivals(rate=2.0),
        link=BufferedLinkModel(capacity=1, on_full="drop"),
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_parity(name, seed):
    assert_scenario_parity(GRAPH, SCENARIOS[name], seed)


def test_reference_event_heap_never_compares_events(monkeypatch):
    # The reference loop's heap orders (time, sequence, event) tuples, so
    # the C tuple comparison settles every order on the unique sequence and
    # never falls through to the generated Event.__lt__.
    def refuse(self, other):
        raise AssertionError("the event heap compared two Event objects")

    monkeypatch.setattr(Event, "__lt__", refuse)
    assert_scenario_parity(GRAPH, SCENARIOS["bursty-kitchen-sink"], 0)


@pytest.mark.parametrize("seed", range(2))
def test_scenario_parity_on_simple_graph(seed):
    scenario = Scenario(
        arrivals=UniformArrivals(60, rate=1.5),
        faults=FaultPlan(
            tuple(
                list(
                    FaultPlan.random_link_failures(
                        BIG, 5, at=2.0, heal_after=5.0, seed=1
                    ).events
                )
                + list(FaultPlan.node_outage(5, at=1.0, heal_at=8.0).events)
            )
        ),
        reroute="arc-disjoint",
    )
    stats = assert_scenario_parity(BIG, scenario, seed)
    assert stats.delivered + stats.undelivered == 60


@pytest.mark.parametrize(
    "run_kwargs",
    [{"max_events": 0}, {"max_events": 7}, {"max_events": 23}, {"until": 1.5}],
    ids=["ev0", "ev7", "ev23", "until"],
)
def test_scenario_truncation_parity(run_kwargs):
    assert_scenario_parity(GRAPH, SCENARIOS["bursty-kitchen-sink"], 5, **run_kwargs)


def test_fault_at_t0_parity_and_counters():
    # The fault fires before any same-instant injection (lower sequence
    # number), so messages whose primary hop died at t=0 never move.
    scenario = Scenario(
        arrivals=UniformArrivals(40, rate=1.0),
        faults=FaultPlan.all_links_down(GRAPH, at=0.0),
    )
    stats = assert_scenario_parity(GRAPH, scenario, 3)
    assert stats.delivered == 0
    assert stats.dropped_fault == 40
    assert stats.undelivered == 40


def test_zero_capacity_buffers_terminate():
    scenario = Scenario(
        arrivals=UniformArrivals(40, rate=1.0),
        link=BufferedLinkModel(
            capacity=0, on_full="retry", retry_delay=1.0, max_retries=2
        ),
    )
    stats = assert_scenario_parity(GRAPH, scenario, 3)
    assert stats.delivered == 0
    assert stats.dropped_buffer == 40
    assert stats.retransmits == 40 * 2  # every message exhausts its retries


def test_reroute_recovers_deliveries():
    faults = FaultPlan.random_link_failures(GRAPH, 6, at=3.0, seed=7)
    base = Scenario(arrivals=UniformArrivals(80, rate=2.0), faults=faults)
    rerouted = Scenario(
        arrivals=UniformArrivals(80, rate=2.0),
        faults=faults,
        reroute="arc-disjoint",
    )
    dropped = assert_scenario_parity(GRAPH, base, 2)
    recovered = assert_scenario_parity(GRAPH, rerouted, 2)
    assert dropped.dropped_fault > 0
    assert recovered.delivered > dropped.delivered
    assert recovered.rerouted_hops > 0


def test_drop_reasons_on_messages():
    scenario = Scenario(
        arrivals=UniformArrivals(40, rate=1.0),
        faults=FaultPlan.all_links_down(GRAPH, at=0.0),
    )
    traffic = scenario.traffic(GRAPH.num_vertices, rng=0)
    for engine in (NetworkSimulator, BatchedNetworkSimulator):
        _, messages = engine(GRAPH, scenario=scenario).run(traffic)
        assert all(message.drop_reason == "fault" for message in messages)


def test_healthy_unreachable_is_not_a_fault_drop():
    # A destination unreachable in the *healthy* topology is a plain
    # undelivered message (drop_reason None), exactly as in the base model —
    # the default-scenario ≡ plain-engine equivalence depends on this.
    from repro.graphs.digraph import Digraph

    graph = Digraph(3, arcs=[(0, 1), (1, 0), (1, 2)])
    scenario = Scenario(max_hops=10)  # degraded path, healthy topology
    traffic = [(2, 0, 0.0), (0, 2, 0.0)]
    for engine in (NetworkSimulator, BatchedNetworkSimulator):
        stats, messages = engine(graph, scenario=scenario).run(traffic)
        assert stats.undelivered == 1
        assert stats.dropped_fault == 0
        assert messages[0].drop_reason is None


def test_run_many_scenario_matches_solo():
    scenario = SCENARIOS["bursty-kitchen-sink"]
    simulator = BatchedNetworkSimulator(GRAPH, scenario=scenario)
    traffics = [
        scenario.traffic(GRAPH.num_vertices, rng=seed) for seed in range(4)
    ]
    stacked = simulator.run_many(traffics)
    for traffic, (stacked_stats, stacked_messages) in zip(traffics, stacked):
        solo_stats, solo_messages = simulator.run(traffic)
        assert stacked_stats == solo_stats
        assert [
            (m.ident, m.hops, m.arrival_time, m.drop_reason)
            for m in stacked_messages
        ] == [
            (m.ident, m.hops, m.arrival_time, m.drop_reason)
            for m in solo_messages
        ]


def _record_bytes(stats, messages):
    """Stats and every message field, floats as hex: a byte-exact record."""
    rows = [
        repr(
            [
                (key, value.hex() if isinstance(value, float) else value)
                for key, value in vars(stats).items()
            ]
        )
    ]
    rows += [
        repr(
            (m.ident, m.source, m.destination, m.creation_time.hex(),
             m.arrival_time.hex(), m.hops, m.drop_reason)
        )
        for m in messages
    ]
    return "\n".join(rows).encode()


@pytest.mark.parametrize(
    "kernels, router",
    [("numpy", None), (None, WrappingRouter(GRAPH))],
    ids=["numpy", "lru"],
)
def test_traced_degrading_run_is_the_reference_loop(kernels, router):
    # On the numpy backend, and with a router only python calls can ask
    # (a wrapping router, id "lru"), the batched engine runs the reference
    # engine's scalar scenario loop: byte for byte its results, and one
    # trace triple per transmission.
    scenario = SCENARIOS["fault-reroute"]
    for seed in range(2):
        traffic = scenario.traffic(GRAPH.num_vertices, rng=seed)
        reference = NetworkSimulator(GRAPH, scenario=scenario, router=router)
        expected = _record_bytes(*reference.run(traffic))
        simulator = BatchedNetworkSimulator(
            GRAPH, scenario=scenario, router=router, kernels=kernels
        )
        assert simulator.kernel_backend == "numpy"
        trace = []
        stats, messages = simulator.run(traffic, trace=trace)
        assert _record_bytes(stats, messages) == expected
        assert _record_bytes(*simulator.run(traffic)) == expected
        assert stats.rerouted_hops > 0
        assert all(
            len(links) == len(starts) == len(movers) == 1
            for links, starts, movers in trace
        )
        movers = [int(movers[0]) for _, _, movers in trace]
        assert np.bincount(movers, minlength=len(messages)).tolist() == [
            m.hops for m in messages
        ]


@pytest.mark.parametrize("kernels", ["numpy", None])
def test_run_many_scenario_starts_every_workload_healthy(kernels):
    # The blackout never heals, so a workload that inherited the previous
    # one's fault flags would lose every message; each must start healthy.
    scenario = Scenario(
        arrivals=UniformArrivals(40, rate=4.0),
        faults=FaultPlan.all_links_down(GRAPH, at=5.0),
    )
    traffics = [scenario.traffic(GRAPH.num_vertices, rng=seed) for seed in range(3)]
    stacked = BatchedNetworkSimulator(
        GRAPH, scenario=scenario, kernels=kernels
    ).run_many(traffics)
    reference = NetworkSimulator(GRAPH, scenario=scenario)
    for traffic, (stats, messages) in zip(traffics, stacked):
        assert stats.delivered > 0
        assert _record_bytes(stats, messages) == _record_bytes(*reference.run(traffic))


@pytest.mark.parametrize("kernels", ["numpy", None])
def test_degrading_run_many_takes_max_events_and_trace_for_one_workload(kernels):
    # Both count the events of one workload, so a degrading run refuses
    # them with several workloads, on every backend: the kernel's global
    # event count and per-workload scalar runs would disagree.
    scenario = SCENARIOS["bursty-kitchen-sink"]
    simulator = BatchedNetworkSimulator(GRAPH, scenario=scenario, kernels=kernels)
    traffics = [scenario.traffic(GRAPH.num_vertices, rng=seed) for seed in range(2)]
    for kwargs in ({"max_events": 10}, {"trace": []}):
        with pytest.raises(ValueError, match="single workload"):
            simulator.run_many(traffics, **kwargs)
        ((stats, _),) = simulator.run_many(traffics[:1], **kwargs)
        reference = NetworkSimulator(GRAPH, scenario=scenario)
        assert stats == reference.run(traffics[0], max_events=kwargs.get("max_events"))[0]


# ---------------------------------------------------------------------------
# Hypothesis: parity over random scenario compositions
# ---------------------------------------------------------------------------
def _scenario_strategy():
    arrivals = st.one_of(
        st.builds(
            UniformArrivals,
            num_messages=st.integers(5, 30),
            rate=st.one_of(st.none(), st.floats(0.2, 5.0)),
        ),
        st.builds(
            HotspotArrivals,
            num_messages=st.integers(5, 30),
            hotspot=st.integers(0, 3),
            hotspot_fraction=st.floats(0.0, 1.0),
            rate=st.one_of(st.none(), st.floats(0.2, 5.0)),
        ),
        st.builds(
            BurstyArrivals,
            num_messages=st.integers(5, 30),
            burst_size=st.integers(1, 8),
            burst_rate=st.floats(0.5, 8.0),
            gap=st.floats(0.0, 5.0),
        ),
    )
    link = st.one_of(
        st.just(LinkModel()),
        st.builds(
            BufferedLinkModel,
            capacity=st.integers(0, 3),
            on_full=st.sampled_from(["drop", "retry"]),
            retry_delay=st.floats(0.25, 2.0),
            max_retries=st.integers(0, 4),
        ),
    )
    fault_event = st.builds(
        FaultEvent,
        time=st.floats(0.0, 10.0),
        kind=st.sampled_from(["link_down", "link_up", "node_down", "node_up"]),
        target=st.integers(0, 3),  # valid for both links and nodes of GRAPH
    )
    faults = st.builds(FaultPlan, st.tuples()) | st.builds(
        FaultPlan, st.lists(fault_event, max_size=6).map(tuple)
    )
    return st.builds(
        Scenario,
        arrivals=arrivals,
        link=link,
        faults=faults,
        reroute=st.sampled_from(["none", "arc-disjoint"]),
        max_hops=st.one_of(st.none(), st.integers(1, 12)),
    )


@settings(max_examples=40, deadline=None)
@given(scenario=_scenario_strategy(), seed=st.integers(0, 2**16))
def test_hypothesis_scenario_parity(scenario, seed):
    assert_scenario_parity(GRAPH, scenario, seed)


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------
def test_run_scenario_sweep_engines_agree_and_mark_pareto():
    scenario = Scenario(
        arrivals=UniformArrivals(50),
        link=BufferedLinkModel(capacity=4, on_full="drop"),
    )
    batched = run_scenario_sweep(BIG, scenario, rates=(0.5, 1.5, 4.0), seeds=range(2))
    reference = NetworkSimulator(BIG, scenario=scenario)
    assert [point.stats for point in batched.points] == [
        reference.run(scenario.with_rate(rate).traffic(BIG.num_vertices, rng=seed))[0]
        for rate in (0.5, 1.5, 4.0)
        for seed in range(2)
    ]
    payload = batched.to_json()
    assert payload["scenario_digest"] == scenario.digest()
    assert len(payload["curves"]) == 3
    assert any(row["pareto"] for row in payload["curves"])
    # Pareto flags: no flagged row may be dominated by any other row.
    for row in payload["curves"]:
        if row["pareto"]:
            assert not any(
                other["throughput"] >= row["throughput"]
                and other["mean_latency"] <= row["mean_latency"]
                and other is not row
                and (
                    other["throughput"] > row["throughput"]
                    or other["mean_latency"] < row["mean_latency"]
                )
                for other in payload["curves"]
            )


def test_workload_layer_integration():
    # make_workload delegates bursty/diurnal to the arrival-process layer.
    from repro.simulation.workloads import SWEEP_WORKLOADS, make_workload

    assert "bursty" in SWEEP_WORKLOADS and "diurnal" in SWEEP_WORKLOADS
    for name in ("bursty", "diurnal"):
        traffic = make_workload(name, 16, 30, rng=5)
        assert len(traffic) == 30
        times = [time for _, _, time in traffic]
        assert times == sorted(times)
        assert make_workload(name, 16, 30, rng=5) == traffic
        assert make_workload(name, 16, 30, rng=5, rate=4.0) != traffic
