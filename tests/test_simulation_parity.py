"""Parity suite: the batched simulator vs. the event-loop reference.

The batched engine's contract (module docstring of
:mod:`repro.simulation.network`) promises *bit-identical* results: the same
:class:`NetworkStats` — delivered count, makespan, latency statistics, FIFO
queue peaks, busy time — and the same per-message records (hop counts and
the full latency histogram), on any workload.  This suite enforces the
contract on uniform / hotspot / permutation workloads over ``H(p, q, d)``
instances *with parallel arcs* (where the earliest-free link selection is
subtlest), across at least five seeds, several link timings (including
zero transmission time and zero latency, which produce same-instant event
cascades), truncated runs (``until`` / ``max_events``) and the stacked
:meth:`~repro.simulation.network.BatchedNetworkSimulator.run_many` path.

This is the fast subset that tier-1 always runs; the 100k-message scale
versions live in ``benchmarks/test_simulation_throughput.py`` behind the
opt-in ``sim`` marker.
"""

import math

import pytest

from repro.graphs.digraph import Digraph
from repro.graphs.generators import de_bruijn
from repro.otis.h_digraph import h_digraph
from repro.simulation.network import (
    BatchedNetworkSimulator,
    LinkModel,
    NetworkSimulator,
)
from repro.simulation.workloads import (
    hotspot_pairs,
    make_workload,
    permutation_pairs,
    uniform_random_pairs,
)

SEEDS = range(5)

# H(1,4,2) and H(2,8,4) are multigraphs (every/many (u, v) pairs carry two
# parallel optical channels); H(4,8,2) and B(2,4) are simple but have loops.
GRAPHS = [
    h_digraph(1, 4, 2),
    h_digraph(2, 8, 4),
    h_digraph(4, 8, 2),
    de_bruijn(2, 4),
]

LINKS = [
    LinkModel(latency=1.0, transmission_time=1.0),
    LinkModel(latency=0.7, transmission_time=0.3),
    LinkModel(latency=1.0, transmission_time=0.0),
    LinkModel(latency=0.0, transmission_time=0.0),
]


def has_parallel_arcs(graph):
    return max(graph.arc_multiset().values()) >= 2


def assert_parity(graph, traffic, link, **run_kwargs):
    ref_stats, ref_messages = NetworkSimulator(graph, link=link).run(
        traffic, **run_kwargs
    )
    bat_stats, bat_messages = BatchedNetworkSimulator(graph, link=link).run(
        traffic, **run_kwargs
    )
    assert bat_stats == ref_stats
    assert repr(bat_stats) == repr(ref_stats)  # the sign of a zero too
    assert len(bat_messages) == len(ref_messages)
    for ref, bat in zip(ref_messages, bat_messages):
        assert bat.ident == ref.ident
        assert bat.source == ref.source
        assert bat.destination == ref.destination
        assert bat.creation_time.hex() == ref.creation_time.hex()
        assert bat.hops == ref.hops
        if math.isnan(ref.arrival_time):
            assert math.isnan(bat.arrival_time)
        else:
            assert bat.arrival_time.hex() == ref.arrival_time.hex()  # exact
    return ref_stats


def test_parity_graph_set_includes_parallel_arcs():
    assert any(has_parallel_arcs(graph) for graph in GRAPHS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "graph", GRAPHS, ids=lambda g: g.name or f"n{g.num_vertices}"
)
def test_uniform_parity(graph, seed):
    n = graph.num_vertices
    traffic = uniform_random_pairs(n, 60, rng=seed)
    stats = assert_parity(graph, traffic, LinkModel(1.0, 1.0))
    assert stats.delivered == 60


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "graph", GRAPHS, ids=lambda g: g.name or f"n{g.num_vertices}"
)
def test_uniform_poisson_parity(graph, seed):
    n = graph.num_vertices
    traffic = uniform_random_pairs(n, 60, rng=seed, rate=1.3)
    assert_parity(graph, traffic, LinkModel(0.7, 0.3))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "graph", GRAPHS, ids=lambda g: g.name or f"n{g.num_vertices}"
)
def test_hotspot_parity(graph, seed):
    n = graph.num_vertices
    traffic = hotspot_pairs(n, 60, hotspot=n - 1, hotspot_fraction=0.7, rng=seed)
    assert_parity(graph, traffic, LinkModel(1.0, 1.0))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "graph", GRAPHS, ids=lambda g: g.name or f"n{g.num_vertices}"
)
def test_permutation_parity(graph, seed):
    traffic = permutation_pairs(graph.num_vertices, rng=seed)
    assert_parity(graph, traffic, LinkModel(1.0, 1.0))


@pytest.mark.parametrize("link", LINKS, ids=["unit", "frac", "T0", "T0L0"])
@pytest.mark.parametrize("seed", SEEDS)
def test_link_timing_parity_on_multigraph(link, seed):
    # H(2, 8, 4) mixes parallel and simple arcs; zero transmission/latency
    # timings collapse timestamps into large same-instant cascades.
    graph = h_digraph(2, 8, 4)
    traffic = uniform_random_pairs(graph.num_vertices, 50, rng=seed, rate=2.0)
    assert_parity(graph, traffic, link)


@pytest.mark.parametrize("max_events", [0, 1, 2, 3, 7, 23, 50, 10_000])
def test_max_events_truncation_parity(max_events):
    graph = h_digraph(2, 8, 4)
    traffic = uniform_random_pairs(graph.num_vertices, 30, rng=1, rate=2.0)
    assert_parity(
        graph, traffic, LinkModel(0.7, 0.3), max_events=max_events
    )
    # A run cut after a ``-0.0`` release reports the same (signed) makespan.
    signed_zeros = [(0, 1, 0.0), (1, 2, -0.0)]
    assert_parity(de_bruijn(2, 2), signed_zeros, LinkModel(), max_events=max_events)


@pytest.mark.parametrize("until", [0.0, 0.5, 1.7, 3.0, 100.0])
def test_until_horizon_parity(until):
    graph = h_digraph(2, 8, 4)
    traffic = uniform_random_pairs(graph.num_vertices, 30, rng=1, rate=2.0)
    assert_parity(graph, traffic, LinkModel(0.7, 0.3), until=until)


def test_drop_parity_on_disconnected():
    graph = Digraph(3, arcs=[(0, 1), (1, 0), (1, 2)])
    traffic = [(2, 0, 0.0), (0, 2, 0.0), (0, 1, 0.0), (2, 2, 0.0)]
    stats = assert_parity(graph, traffic, LinkModel(1.0, 1.0))
    assert stats.undelivered == 1  # only the message stranded at node 2


def test_empty_traffic_parity():
    stats = assert_parity(h_digraph(4, 8, 2), [], LinkModel(1.0, 1.0))
    assert stats.delivered == 0 and stats.makespan == 0.0


def test_run_many_matches_individual_runs():
    graph = h_digraph(8, 16, 2)
    link = LinkModel(1.0, 1.0)
    simulator = BatchedNetworkSimulator(graph, link=link)
    n = graph.num_vertices
    traffics = [
        make_workload("uniform", n, 150, rng=seed) for seed in range(3)
    ] + [
        make_workload("hotspot", n, 100, rng=7, hotspot=3, hotspot_fraction=0.6),
        make_workload("uniform", n, 100, rng=9, rate=3.0),
        make_workload("permutation", n, 0, rng=11),
    ]
    stacked = simulator.run_many(traffics)
    assert len(stacked) == len(traffics)
    for traffic, (stacked_stats, stacked_messages) in zip(traffics, stacked):
        solo_stats, solo_messages = simulator.run(traffic)
        assert stacked_stats == solo_stats
        assert [(m.ident, m.hops, m.arrival_time) for m in stacked_messages] == [
            (m.ident, m.hops, m.arrival_time) for m in solo_messages
        ]


def test_run_many_return_messages_flag():
    graph = h_digraph(4, 8, 2)
    simulator = BatchedNetworkSimulator(graph)
    traffic = uniform_random_pairs(graph.num_vertices, 20, rng=0)
    ((stats, messages),) = simulator.run_many([traffic], return_messages=False)
    assert messages is None
    assert stats.delivered == 20


def test_both_engines_share_cached_routing_table():
    # one table router passed to both engines: its table is built once
    from repro.routing.routers import DenseTableRouter

    graph = h_digraph(4, 8, 2)
    router = DenseTableRouter(graph)
    reference = NetworkSimulator(graph, router=router)
    batched = BatchedNetworkSimulator(graph, router=router)
    assert reference.router is router and batched.router is router
    traffic = uniform_random_pairs(graph.num_vertices, 40, rng=1)
    assert reference.run(traffic)[0] == batched.run(traffic)[0]


def test_routing_cache_invalidated_by_mutation():
    # Regression: an (n, m)-preserving rewire must not route over the old
    # arcs — each engine builds its router from the current topology.
    graph = Digraph(3, arcs=[(0, 1), (1, 0), (1, 2)])
    for engine_cls in (NetworkSimulator, BatchedNetworkSimulator):
        assert engine_cls(graph).run([(0, 2, 0.0)])[1][0].hops == 2
    graph.remove_arc(1, 2)
    graph.add_arc(0, 2)  # same n, same m, different topology
    for engine_cls in (NetworkSimulator, BatchedNetworkSimulator):
        stats, messages = engine_cls(graph).run([(0, 2, 0.0)])
        assert stats.delivered == 1
        assert messages[0].hops == 1
