"""Property-based tests (hypothesis) for the batched simulator engine.

Three families of invariants, per the batched-engine contract:

* **Conservation** — every injected message is accounted for at drain:
  ``delivered + undelivered == injected``, undelivered messages are exactly
  the unreachable ones, and on strongly connected topologies everything
  drains.
* **FIFO per link** — the transmission trace of the batched engine serves
  each physical link in chronological order with starts separated by at
  least the transmission time (the batching never reorders a link's queue).
* **Monotone throughput in link count** — adding parallel links between the
  same endpoints can only speed a fixed workload up (the multigraph capacity
  argument behind the paper's ``H(p, q, d)`` arc multisets).

Randomised engine-vs-reference parity over arbitrary regular digraphs and
collision-heavy timestamps rides along: it is the strongest single check of
the batch resolution order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.digraph import Digraph, RegularDigraph
from repro.graphs.generators import de_bruijn
from repro.simulation.network import (
    BatchedNetworkSimulator,
    LinkModel,
    NetworkSimulator,
)


# ---------------------------------------------------------------- strategies
@st.composite
def regular_digraphs(draw, max_nodes=8, max_degree=3):
    """Arbitrary out-regular digraphs (loops and parallel arcs included)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    d = draw(st.integers(min_value=1, max_value=max_degree))
    successors = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    return RegularDigraph(np.array(successors, dtype=np.int64))


@st.composite
def traffics(draw, num_nodes, max_messages=25):
    """Traffic with deliberately colliding integer/quarter timestamps."""
    count = draw(st.integers(min_value=0, max_value=max_messages))
    quarters = st.integers(min_value=0, max_value=12)
    return [
        (
            draw(st.integers(0, num_nodes - 1)),
            draw(st.integers(0, num_nodes - 1)),
            draw(quarters) / 4.0,
        )
        for _ in range(count)
    ]


# ------------------------------------------------------------- conservation
@given(graph=regular_digraphs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_conservation_at_drain(graph, data):
    traffic = data.draw(traffics(graph.num_vertices))
    simulator = BatchedNetworkSimulator(graph, link=LinkModel(1.0, 1.0))
    stats, messages = simulator.run(traffic)
    # injected == delivered + in-flight; the queue has drained, so the only
    # in-flight remainder is the unreachable drops
    assert stats.delivered + stats.undelivered == len(traffic)
    assert sum(m.delivered for m in messages) == stats.delivered
    sources, targets = (np.array([m[k] for m in traffic], dtype=np.int64) for k in (0, 1))
    unreachable = int((simulator.router.path_lengths(sources, targets) < 0).sum())
    assert stats.undelivered == unreachable


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_everything_drains_on_strongly_connected(seed):
    graph = de_bruijn(2, 3)
    rng = np.random.default_rng(seed)
    traffic = [
        (int(rng.integers(8)), int(rng.integers(8)), float(rng.integers(4)))
        for _ in range(30)
    ]
    stats, _ = BatchedNetworkSimulator(graph).run(traffic)
    assert stats.undelivered == 0
    assert stats.delivered == 30


# ------------------------------------------------------------ FIFO per link
@given(seed=st.integers(0, 2**31 - 1), hot=st.booleans())
@settings(max_examples=25, deadline=None)
def test_fifo_service_per_link(seed, hot):
    from repro.simulation.workloads import hotspot_pairs, uniform_random_pairs

    graph = de_bruijn(2, 3)
    link = LinkModel(latency=1.0, transmission_time=0.5)
    n = graph.num_vertices
    traffic = (
        hotspot_pairs(n, 40, hotspot=0, hotspot_fraction=0.8, rng=seed)
        if hot
        else uniform_random_pairs(n, 40, rng=seed)
    )
    trace: list = []
    simulator = BatchedNetworkSimulator(graph, link=link)
    stats, _ = simulator.run(traffic, trace=trace)
    assert stats.delivered == 40
    links = np.concatenate([chunk[0] for chunk in trace])
    starts = np.concatenate([chunk[1] for chunk in trace])
    # the trace is chronological; per link, service must be FIFO with a full
    # transmission time between consecutive starts
    for link_id in np.unique(links):
        series = starts[links == link_id]
        gaps = np.diff(series)
        assert np.all(gaps >= link.transmission_time - 1e-12)


# --------------------------------------- monotone throughput in link count
def _parallel_pipe(width):
    """Two nodes, ``width`` parallel arcs forward, one return arc."""
    arcs = [(0, 1)] * width + [(1, 0)]
    return Digraph(2, arcs=arcs)


@given(
    messages=st.integers(min_value=1, max_value=40),
    widths=st.tuples(st.integers(1, 6), st.integers(1, 6)).map(sorted),
    transmission=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)
@settings(max_examples=40, deadline=None)
def test_monotone_throughput_in_link_count(messages, widths, transmission):
    narrow, wide = widths
    traffic = [(0, 1, 0.0)] * messages
    link = LinkModel(latency=1.0, transmission_time=transmission)
    results = {}
    for width in (narrow, wide):
        stats, _ = BatchedNetworkSimulator(_parallel_pipe(width), link=link).run(
            traffic
        )
        assert stats.delivered == messages
        results[width] = stats
    # more parallel (u, v) channels can only shrink the makespan of a fixed
    # workload, hence throughput is monotone in the link count
    assert results[wide].makespan <= results[narrow].makespan
    assert results[wide].throughput() >= results[narrow].throughput()
    # exact capacity law for the saturated pipe: ceil(M / width) serial slots
    expected = math.ceil(messages / wide) * transmission + link.latency
    assert results[wide].makespan == pytest.approx(expected)


# ----------------------------------------------------- randomised parity
@given(graph=regular_digraphs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_parity_with_reference(graph, data):
    traffic = data.draw(traffics(graph.num_vertices))
    link = LinkModel(
        latency=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        transmission_time=data.draw(st.sampled_from([0.0, 0.25, 1.0])),
    )
    ref_stats, ref_messages = NetworkSimulator(graph, link=link).run(traffic)
    bat_stats, bat_messages = BatchedNetworkSimulator(graph, link=link).run(traffic)
    assert bat_stats == ref_stats
    for ref, bat in zip(ref_messages, bat_messages):
        assert bat.hops == ref.hops
        if math.isnan(ref.arrival_time):
            assert math.isnan(bat.arrival_time)
        else:
            assert bat.arrival_time == ref.arrival_time
