"""Tests for the discrete-event engine and the network simulator."""

import threading

import numpy as np
import pytest

from repro.graphs.generators import circuit, de_bruijn, kautz, ring
from repro.simulation.events import BatchEventQueue, EventQueue, Simulator
from repro.simulation.network import (
    BatchedNetworkSimulator,
    LinkModel,
    NetworkSimulator,
)

ENGINES = [NetworkSimulator, BatchedNetworkSimulator]
ENGINE_IDS = ["event", "batched"]
from repro.simulation.protocols import (
    run_broadcast,
    run_gossip_traffic,
    run_point_to_point,
    run_random_traffic,
)
from repro.simulation.workloads import (
    SWEEP_WORKLOADS,
    all_to_all_pairs,
    broadcast_pairs,
    hotspot_pairs,
    make_workload,
    permutation_pairs,
    poisson_arrival_times,
    sweep_combos,
    sweep_traffics,
    uniform_random_pairs,
)


class TestEventQueue:
    def test_ordering_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while len(queue):
            queue.pop().action()
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        order = []
        for label in "abc":
            queue.push(1.0, lambda lab=label: order.append(lab))
        while len(queue):
            queue.pop().action()
        assert order == ["a", "b", "c"]

    def test_pop_empty(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)


class TestSimulator:
    def test_time_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(2.0, lambda: times.append(sim.now))
        end = sim.run()
        assert times == [2.0, 5.0]
        assert end == 5.0
        assert sim.events_processed == 2

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(3.0, lambda: log.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [1.0, 4.0]

    def test_until_and_max_events(self):
        sim = Simulator()
        counter = []
        for t in range(10):
            sim.schedule(float(t), lambda: counter.append(1))
        sim.run(until=4.5)
        assert len(counter) == 5
        sim2 = Simulator()
        for t in range(10):
            sim2.schedule(float(t), lambda: counter.append(1))
        sim2.run(max_events=3)
        assert sim2.events_processed == 3

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)


class TestWorkloads:
    def test_uniform_random(self):
        traffic = uniform_random_pairs(16, 100, rng=0)
        assert len(traffic) == 100
        assert all(0 <= s < 16 and 0 <= t < 16 and s != t for s, t, _ in traffic)
        assert all(time == 0.0 for _, _, time in traffic)

    def test_uniform_random_with_rate(self):
        traffic = uniform_random_pairs(8, 50, rng=1, rate=2.0)
        times = [time for _, _, time in traffic]
        assert times == sorted(times)
        assert times[-1] > 0

    def test_permutation(self):
        traffic = permutation_pairs(10, rng=3)
        destinations = [t for _, t, _ in traffic]
        assert sorted(destinations) == list(range(10))
        assert all(s != t for s, t, _ in traffic)

    def test_hotspot(self):
        traffic = hotspot_pairs(16, 200, hotspot=5, hotspot_fraction=0.9, rng=2)
        to_hotspot = sum(1 for _, t, _ in traffic if t == 5)
        assert to_hotspot > 100  # overwhelming majority targets the hotspot

    def test_broadcast_and_all_to_all(self):
        assert len(broadcast_pairs(8, root=3)) == 7
        assert len(all_to_all_pairs(5)) == 20
        with pytest.raises(ValueError):
            broadcast_pairs(4, root=9)

    def test_poisson_times(self):
        times = poisson_arrival_times(100, 4.0, rng=0)
        assert len(times) == 100
        assert np.all(np.diff(times) >= 0)
        with pytest.raises(ValueError):
            poisson_arrival_times(5, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_random_pairs(1, 5)
        with pytest.raises(ValueError):
            hotspot_pairs(8, 10, hotspot_fraction=2.0)

    def test_hotspot_on_one_node_raises_instead_of_hanging(self):
        # the destination re-draw ``while destination == source`` cannot
        # exit on a 1-node graph; run in a thread so a hang fails the test
        from repro.simulation.scenarios import HotspotArrivals

        def one_node_errors():
            errors = []
            for generate in (
                lambda: hotspot_pairs(1, 3, rng=0),
                lambda: HotspotArrivals(3).traffic(1, rng=0),
            ):
                try:
                    generate()
                except ValueError as exc:
                    errors.append(str(exc))
            outcome.append(errors)

        outcome = []
        worker = threading.Thread(target=one_node_errors, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "hotspot_pairs hangs on a 1-node graph"
        assert outcome == [["hotspot traffic needs at least 2 nodes"] * 2]

    @pytest.mark.parametrize(
        "generate",
        [
            lambda: uniform_random_pairs(4, -1),
            lambda: uniform_random_pairs(4, -1, rng=0, rate=1.0),
            lambda: hotspot_pairs(4, -1),
            *(
                lambda name=name: make_workload(name, 4, -1, rng=0)
                for name in SWEEP_WORKLOADS
            ),
        ],
        ids=["uniform", "uniform-rate", "hotspot"]
        + [f"make_workload-{name}" for name in SWEEP_WORKLOADS],
    )
    def test_negative_message_counts_raise(self, generate):
        with pytest.raises(ValueError, match="^num_messages must be non-negative$"):
            generate()


class TestNetworkSimulator:
    def test_single_message_latency(self):
        # one hop: transmission + latency
        link = LinkModel(latency=2.0, transmission_time=1.0)
        result = run_point_to_point(de_bruijn(2, 3), 0, 1, link=link)
        assert result["delivered"] == 1.0
        assert result["hops"] == 1.0
        assert result["latency"] == pytest.approx(3.0)

    def test_multi_hop_latency_matches_distance(self):
        d, D = 2, 4
        link = LinkModel(latency=1.0, transmission_time=0.5)
        B = de_bruijn(d, D)
        from repro.routing.paths import debruijn_distance

        for target in (3, 9, 15):
            result = run_point_to_point(B, 0, target, link=link)
            hops = debruijn_distance(0, target, d, D)
            assert result["hops"] == hops
            assert result["latency"] == pytest.approx(hops * 1.5)

    def test_self_message(self):
        result = run_point_to_point(de_bruijn(2, 3), 5, 5)
        assert result["hops"] == 0.0
        assert result["latency"] == 0.0

    def test_contention_serialises_on_shared_link(self):
        # Two messages injected at the same node towards the same next hop
        # must be serialised by the transmission time.
        C = circuit(4)
        simulator = NetworkSimulator(C, link=LinkModel(latency=0.0, transmission_time=2.0))
        stats, messages = simulator.run([(0, 1, 0.0), (0, 1, 0.0)])
        assert stats.delivered == 2
        latencies = sorted(m.latency for m in messages)
        assert latencies == [2.0, 4.0]
        assert stats.max_link_queue >= 1

    @pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
    def test_parallel_arcs_are_distinct_links(self, engine_cls):
        # Regression (PR 1 fix, locked for both engines): _arc_index used
        # setdefault((u, v), index), collapsing parallel arcs into one link;
        # two simultaneous messages 0 -> 1 then serialised as [1.0, 2.0] even
        # though two physical links exist.  A 2-arc (u, v) multigraph must
        # carry two simultaneous messages with no queueing delay.
        from repro.graphs.digraph import Digraph

        g = Digraph(2, arcs=[(0, 1), (0, 1), (1, 0), (1, 0)])
        simulator = engine_cls(g, link=LinkModel(latency=0.0, transmission_time=1.0))
        stats, messages = simulator.run([(0, 1, 0.0), (0, 1, 0.0)])
        assert stats.delivered == 2
        assert sorted(m.latency for m in messages) == [1.0, 1.0]
        assert stats.max_link_queue == 1  # one message per physical link

    @pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
    def test_parallel_links_still_serialise_when_saturated(self, engine_cls):
        # Three messages over two parallel links: one of them must queue.
        from repro.graphs.digraph import Digraph

        g = Digraph(2, arcs=[(0, 1), (0, 1), (1, 0)])
        simulator = engine_cls(g, link=LinkModel(latency=0.0, transmission_time=1.0))
        stats, messages = simulator.run([(0, 1, 0.0)] * 3)
        assert stats.delivered == 3
        assert sorted(m.latency for m in messages) == [1.0, 1.0, 2.0]

    @pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
    def test_otis_multigraph_contention_not_overestimated(self, engine_cls):
        # H(1, 4, 2) is a 2-vertex digraph whose arcs are all parallel pairs;
        # both transceivers must carry traffic simultaneously.
        from repro.otis.h_digraph import h_digraph

        H = h_digraph(1, 4, 2)
        assert max(H.arc_multiset().values()) >= 2
        simulator = engine_cls(H, link=LinkModel(latency=0.0, transmission_time=1.0))
        stats, messages = simulator.run([(0, 1, 0.0), (0, 1, 0.0)])
        assert sorted(m.latency for m in messages) == [1.0, 1.0]

    def test_all_messages_delivered_random_traffic(self):
        stats = run_random_traffic(de_bruijn(2, 4), 200, seed=7)
        assert stats.delivered == 200
        assert stats.undelivered == 0
        assert stats.mean_hops <= 4
        assert stats.throughput() > 0

    def test_undelivered_on_disconnected(self):
        from repro.graphs.digraph import Digraph

        g = Digraph(3, arcs=[(0, 1), (1, 0), (1, 2)])
        simulator = NetworkSimulator(g)
        stats, _ = simulator.run([(2, 0, 0.0)])
        assert stats.delivered == 0
        assert stats.undelivered == 1

    def test_invalid_endpoints(self):
        simulator = NetworkSimulator(circuit(3))
        with pytest.raises(ValueError):
            simulator.run([(0, 9, 0.0)])


class TestProtocols:
    def test_broadcast_comparison(self):
        result = run_broadcast(de_bruijn(2, 4), root=0)
        assert result["all_port_rounds"] == 4.0
        assert result["single_port_rounds"] >= 4.0
        assert result["covers_all"] == 1.0
        assert result["unicast_makespan"] > 0

    def test_gossip_protocol(self):
        result = run_gossip_traffic(kautz(2, 3))
        assert result["rounds"] == 3.0
        assert result["complete"] == 1.0

    def test_debruijn_beats_ring_on_latency(self):
        # The whole point of using B(d, D): logarithmic diameter.
        n = 64
        debruijn_stats = run_random_traffic(de_bruijn(2, 6), 300, seed=5)
        ring_stats = run_random_traffic(ring(n), 300, seed=5)
        assert debruijn_stats.mean_hops < ring_stats.mean_hops

    def test_protocols_accept_engine_choice(self):
        # The protocols run the batched engine; it must match the reference.
        graph = de_bruijn(2, 4)
        reference = NetworkSimulator(graph)
        stats = run_random_traffic(graph, 100, seed=3)
        traffic = uniform_random_pairs(graph.num_vertices, 100, rng=3)
        assert stats == reference.run(traffic)[0]
        point = run_point_to_point(graph, 0, 9)
        assert point["delivered"] == 1.0
        ref_stats, ref_messages = reference.run([(0, 9, 0.0)])
        assert point["latency"] == ref_messages[0].latency
        assert point["makespan"] == ref_stats.makespan
        broadcast = run_broadcast(graph, root=0)
        ref_stats = reference.run(broadcast_pairs(graph.num_vertices, 0))[0]
        assert broadcast["unicast_makespan"] == ref_stats.makespan
        assert broadcast["unicast_mean_latency"] == ref_stats.mean_latency


class TestBatchEventQueue:
    def test_pop_batch_groups_equal_times(self):
        queue = BatchEventQueue(6)
        queue.schedule(np.array([0, 1, 2, 3]), np.array([2.0, 1.0, 2.0, 1.0]))
        queue.schedule_one(4, 1.0)
        assert len(queue) == 5
        assert queue.peek_time() == 1.0
        time, slots = queue.pop_batch()
        # insertion-sequence order: slot 1 then 3 (first call), then 4
        assert (time, slots) == (1.0, [1, 3, 4])
        time, slots = queue.pop_batch()
        assert (time, slots) == (2.0, [0, 2])
        assert len(queue) == 0

    def test_pop_batch_limit_keeps_lowest_sequence(self):
        queue = BatchEventQueue(4)
        queue.schedule(np.array([3, 1, 2]), np.array([1.0, 1.0, 1.0]))
        time, slots = queue.pop_batch(limit=2)
        assert (time, slots) == (1.0, [3, 1])
        assert queue.peek_time() == 1.0
        assert queue.pop_batch() == (1.0, [2])

    def test_rejects_double_schedule_and_negative_time(self):
        queue = BatchEventQueue(3)
        queue.schedule_one(0, 1.0)
        with pytest.raises(ValueError):
            queue.schedule_one(0, 2.0)
        with pytest.raises(ValueError):
            queue.schedule(np.array([1]), np.array([-1.0]))
        with pytest.raises(ValueError):
            queue.schedule_one(2, -0.5)

    def test_rejects_duplicate_indices_in_one_call(self):
        queue = BatchEventQueue(4)
        with pytest.raises(ValueError, match="already holds"):
            queue.schedule(np.array([0, 0]), np.array([1.0, 1.0]))
        assert len(queue) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            BatchEventQueue(1).pop_batch()
        assert BatchEventQueue(1).peek_time() is None

    def test_slot_reusable_after_pop(self):
        queue = BatchEventQueue(1)
        queue.schedule_one(0, 1.0)
        queue.pop_batch()
        queue.schedule_one(0, 2.0)
        assert queue.pop_batch() == (2.0, [0])


class TestLinkModelValidation:
    def test_from_hardware_rejects_zero_rate(self):
        from repro.otis.hardware import HardwareModel

        with pytest.raises(ValueError, match="rate_gbps must be positive"):
            LinkModel.from_hardware(HardwareModel(), rate_gbps=0.0)

    def test_from_hardware_rejects_negative_rate(self):
        from repro.otis.hardware import HardwareModel

        with pytest.raises(ValueError, match="rate_gbps must be positive"):
            LinkModel.from_hardware(HardwareModel(), rate_gbps=-2.5)

    def test_from_hardware_rejects_nonpositive_message_bits(self):
        from repro.otis.hardware import HardwareModel

        with pytest.raises(ValueError, match="message_bits must be positive"):
            LinkModel.from_hardware(HardwareModel(), message_bits=0.0)

    def test_from_hardware_valid(self):
        from repro.otis.hardware import HardwareModel

        link = LinkModel.from_hardware(
            HardwareModel(), message_bits=2048.0, rate_gbps=2.0
        )
        assert link.transmission_time == pytest.approx(1024.0)
        assert link.latency > 0


class TestThroughputSweepDriver:
    def test_sweep_shapes_and_curves(self):
        from repro.otis.h_digraph import h_digraph
        from repro.simulation.workloads import run_throughput_sweep

        graph = h_digraph(4, 8, 2)
        sweep = run_throughput_sweep(
            graph,
            workloads=("uniform", "permutation"),
            rates=(None, 2.0),
            seeds=range(2),
            num_messages=40,
        )
        assert len(sweep.points) == 2 * 2 * 2
        assert all(point.stats.undelivered == 0 for point in sweep.points)
        rows = sweep.curves()
        assert len(rows) == 4
        assert {row["workload"] for row in rows} == {"uniform", "permutation"}
        payload = sweep.to_json()
        assert payload["graph"] == "H(4,8,2)"
        assert payload["nodes"] == 16 and payload["links"] == 32
        assert len(payload["curves"]) == 4

    def test_sweep_engines_agree(self):
        from repro.otis.h_digraph import h_digraph
        from repro.simulation.workloads import run_throughput_sweep

        graph = h_digraph(4, 8, 2)
        kwargs = dict(
            workloads=("uniform", "hotspot"),
            rates=(None, 1.5),
            seeds=range(2),
            num_messages=30,
        )
        sweep = run_throughput_sweep(graph, **kwargs)
        combos = sweep_combos(kwargs["workloads"], kwargs["rates"], kwargs["seeds"])
        traffics = sweep_traffics(graph.num_vertices, combos, kwargs["num_messages"])
        reference = NetworkSimulator(graph)
        assert [point.stats for point in sweep.points] == [
            reference.run(traffic)[0] for traffic in traffics
        ]

    def test_make_workload_validation(self):
        from repro.simulation.workloads import make_workload

        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("tsunami", 8, 10)
        traffic = make_workload("uniform", 8, 10, rng=0, rate=2.0)
        times = [time for _, _, time in traffic]
        assert times == sorted(times) and times[-1] > 0
        permutation = make_workload("permutation", 8, 999, rng=1)
        assert len(permutation) == 8  # ignores num_messages


class TestEngineRegistry:
    @pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
    def test_invalid_endpoints_both_engines(self, engine_cls):
        simulator = engine_cls(circuit(3))
        with pytest.raises(ValueError, match="out of range"):
            simulator.run([(0, 9, 0.0)])

    def test_batched_rejects_negative_injection_time(self):
        simulator = BatchedNetworkSimulator(circuit(3))
        with pytest.raises(ValueError, match="non-negative"):
            simulator.run([(0, 1, -1.0)])


def _left_fold(count, term):
    total = 0.0
    for _ in range(count):
        total += term
    return total


@pytest.mark.parametrize(
    "term",
    [1.0, 0.5, 2.5, 3.0, 0.1, 1 / 3, 0.7, 1e-300, 5e-324, 2.0**600, 1e308,
     float(2**52 - 1), float(2**53 - 1)],
)
@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 1000, 123_457])
def test_sequential_sum_is_the_left_to_right_fold(term, count):
    """The busy-time total equals the reference's ``+=`` loop, bit for bit,
    on both sides of the exact-product shortcut."""
    from repro.simulation.network import _sequential_sum

    assert _sequential_sum(count, term).hex() == _left_fold(count, term).hex()


def test_sequential_sum_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.simulation.network import _sequential_sum

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    def check(count, term):
        assert _sequential_sum(count, term).hex() == _left_fold(count, term).hex()

    check()
