"""End-to-end simulation experiments.

These functions wrap the network simulators into the experiments the examples
and the ablation benchmarks run: point-to-point latency, random traffic under
load, broadcast (both as naive unicasts and as the tree schedules of
:mod:`repro.routing.broadcast`), and gossip traffic volume.  Each returns
plain dictionaries/dataclasses so results can be tabulated next to the
paper-derived quantities in EXPERIMENTS.md.

Every simulator-backed experiment runs the vectorised
:class:`~repro.simulation.network.BatchedNetworkSimulator` (bit-identical to
the reference event loop) and takes a ``router=`` kind
(:data:`repro.routing.routers.ROUTER_KINDS`) for topologies too large for
the dense next-hop table.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.digraph import BaseDigraph
from repro.routing.broadcast import (
    all_port_broadcast_schedule,
    single_port_broadcast_schedule,
)
from repro.routing.gossip import all_port_gossip_schedule
from repro.simulation.network import (
    BatchedNetworkSimulator,
    LinkModel,
    NetworkStats,
)
from repro.simulation.workloads import broadcast_pairs, uniform_random_pairs

__all__ = [
    "run_point_to_point",
    "run_random_traffic",
    "run_broadcast",
    "run_gossip_traffic",
]


def run_point_to_point(
    graph: BaseDigraph,
    source: int,
    destination: int,
    link: LinkModel | None = None,
    *,
    router: str | None = None,
) -> dict[str, float]:
    """Deliver a single message and report its latency and hop count."""
    simulator = BatchedNetworkSimulator(graph, link=link, router=router)
    stats, messages = simulator.run([(source, destination, 0.0)])
    message = messages[0]
    return {
        "delivered": float(message.delivered),
        "latency": message.latency if message.delivered else float("inf"),
        "hops": float(message.hops),
        "makespan": stats.makespan,
    }


def run_random_traffic(
    graph: BaseDigraph,
    num_messages: int,
    *,
    link: LinkModel | None = None,
    rate: float | None = None,
    seed: int = 0,
    router: str | None = None,
) -> NetworkStats:
    """Uniform random traffic experiment; returns the aggregate statistics."""
    traffic = uniform_random_pairs(
        graph.num_vertices, num_messages, rng=seed, rate=rate
    )
    simulator = BatchedNetworkSimulator(graph, link=link, router=router)
    stats, _ = simulator.run(traffic)
    return stats


def run_broadcast(
    graph: BaseDigraph,
    root: int = 0,
    *,
    link: LinkModel | None = None,
    router: str | None = None,
) -> dict[str, float]:
    """Compare three ways of broadcasting from ``root``.

    Returns the number of rounds of the all-port and single-port tree
    schedules (topology-level quantities) and the simulated makespan of the
    naive unicast emulation (which suffers injection-port contention at the
    root) under the given link model.
    """
    all_port = all_port_broadcast_schedule(graph, root)
    single_port = single_port_broadcast_schedule(graph, root)
    simulator = BatchedNetworkSimulator(graph, link=link, router=router)
    stats, _ = simulator.run(broadcast_pairs(graph.num_vertices, root))
    return {
        "all_port_rounds": float(all_port.num_rounds),
        "single_port_rounds": float(single_port.num_rounds),
        "unicast_makespan": stats.makespan,
        "unicast_mean_latency": stats.mean_latency,
        "covers_all": float(all_port.covers_all() and single_port.covers_all()),
    }


def run_gossip_traffic(graph: BaseDigraph) -> dict[str, float]:
    """All-port gossip: rounds to completion and total arc traffic."""
    schedule = all_port_gossip_schedule(graph)
    n = graph.num_vertices
    final_counts = schedule.knowledge_counts[-1]
    return {
        "rounds": float(schedule.num_rounds),
        "arc_traffic": float(schedule.arc_traffic),
        "complete": float(schedule.completed() and bool(np.all(final_counts == n))),
    }
