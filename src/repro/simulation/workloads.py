"""Synthetic traffic generators and the multi-workload throughput driver.

The generators produce a :class:`~repro.simulation.network.Traffic`: the
``(source, destination, injection_time)`` triples of a workload as three
read-only columns, which iterates as the list of triples and is the input
format of :meth:`repro.simulation.network.NetworkSimulator.run`.  The
workloads are the usual suspects of interconnection-network evaluation:
uniform random traffic, random permutations, hotspot traffic, one-to-all
broadcast and all-to-all exchange.  All generators take an explicit numpy
``Generator`` (or seed) so that every experiment in the benchmarks is
reproducible.

:func:`run_throughput_sweep` is the batched multi-workload driver: it
enumerates ``(workload, injection rate, seed)`` combinations
(:func:`sweep_combos`), builds each traffic deterministically from its seed
(:func:`sweep_traffics`) and hands the whole pile to
:meth:`repro.simulation.network.BatchedNetworkSimulator.run_many`, which
simulates every combination in one pooled pass over a shared router.  The
resulting :class:`ThroughputSweep` aggregates seeds into throughput/latency
curves and serialises to the ``BENCH_sim.json`` trajectory format.  The
same ``(combos, traffics)`` pair feeds the chunk-store path of
:mod:`repro.simulation.sharding` (``repro fleet sim --out-dir ...``, one or
more fleet workers per store), which is how multi-seed million-message
studies run on topologies whose dense routing table would not even fit in
memory.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from repro import kernels as _kernels
from repro.graphs.digraph import BaseDigraph
from repro.simulation.network import (
    BatchedNetworkSimulator,
    LinkModel,
    NetworkStats,
    Traffic,
)

__all__ = [
    "Traffic",
    "uniform_random_pairs",
    "permutation_pairs",
    "hotspot_pairs",
    "broadcast_pairs",
    "all_to_all_pairs",
    "poisson_arrival_times",
    "SWEEP_WORKLOADS",
    "make_workload",
    "SweepPoint",
    "ThroughputSweep",
    "sweep_combos",
    "sweep_traffics",
    "assemble_throughput_sweep",
    "run_throughput_sweep",
]


def _check_count(num_messages: int) -> None:
    if num_messages < 0:
        raise ValueError("num_messages must be non-negative")


def _rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def poisson_arrival_times(
    count: int, rate: float, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """``count`` arrival times of a Poisson process with the given rate."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if rate <= 0:
        raise ValueError("rate must be positive")
    generator = _rng(rng)
    gaps = generator.exponential(1.0 / rate, size=count)
    return np.cumsum(gaps)


def uniform_random_pairs(
    num_nodes: int,
    num_messages: int,
    rng: np.random.Generator | int | None = None,
    *,
    rate: float | None = None,
) -> Traffic:
    """Uniform random traffic: independent random (source, destination) pairs.

    Sources and destinations are drawn uniformly (destination resampled when
    it collides with the source).  When ``rate`` is given, injection times
    follow a Poisson process of that rate; otherwise all messages are injected
    at time 0.
    """
    _check_count(num_messages)
    if num_nodes < 2:
        raise ValueError("uniform random traffic needs at least 2 nodes")
    generator = _rng(rng)
    times = (
        poisson_arrival_times(num_messages, rate, generator)
        if rate is not None
        else np.zeros(num_messages)
    )
    sources, destinations = _uniform_endpoints(generator, num_nodes, num_messages)
    return Traffic(sources, destinations, times)


def _uniform_endpoints(
    generator: np.random.Generator, num_nodes: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` (source, destination) pairs, drawn in blocks.

    Consumes the generator exactly like the scalar loop ``source =
    integers(n); destination = integers(n); while destination == source:
    destination = integers(n)`` — ``integers(n, size=k)`` returns the
    values of ``k`` scalar calls and leaves the same state — so the pairs
    and the generator state afterwards are identical.  Each block asks for
    just the values the remaining messages are certain to draw (two each,
    one fewer while a source waits for its destination), so nothing is
    drawn that the scalar loop would not draw.
    """
    src = np.empty(count, dtype=np.int64)
    dst = np.empty(count, dtype=np.int64)
    done = 0
    source = -1  # message ``done``'s source while its destination is pending
    while done < count:
        need = 2 * (count - done) - (source >= 0)
        block = generator.integers(num_nodes, size=need)
        pos = 0
        while True:
            if source >= 0:  # replay the scalar destination draws
                while pos < need and block[pos] == source:
                    pos += 1
                if pos == need:
                    break
                src[done] = source
                dst[done] = block[pos]
                done += 1
                pos += 1
                source = -1
            pairs = (need - pos) // 2
            heads = block[pos : pos + 2 * pairs : 2]
            tails = block[pos + 1 : pos + 2 * pairs : 2]
            clash = np.flatnonzero(heads == tails)
            take = int(clash[0]) if clash.size else pairs
            src[done : done + take] = heads[:take]
            dst[done : done + take] = tails[:take]
            done += take
            pos += 2 * take
            if pos == need:
                break
            # a clash, or one value left over: a source whose destination
            # draws (the clashing one included) the replay above consumes
            source = int(block[pos])
            pos += 1
    return src, dst


def permutation_pairs(
    num_nodes: int, rng: np.random.Generator | int | None = None
) -> Traffic:
    """A random permutation workload: every node sends one message, no two
    messages share a destination, nobody sends to itself (for ``n > 1``)."""
    if num_nodes < 1:
        raise ValueError("need at least one node")
    generator = _rng(rng)
    destinations = generator.permutation(num_nodes)
    # Resample until derangement-ish (fix self-loops by swapping).
    for node in range(num_nodes):
        if destinations[node] == node:
            other = (node + 1) % num_nodes
            destinations[node], destinations[other] = (
                destinations[other],
                destinations[node],
            )
    return Traffic(np.arange(num_nodes), destinations, np.zeros(num_nodes))


def hotspot_pairs(
    num_nodes: int,
    num_messages: int,
    hotspot: int = 0,
    hotspot_fraction: float = 0.5,
    rng: np.random.Generator | int | None = None,
) -> Traffic:
    """Hotspot traffic: a fraction of messages target one node, the rest are uniform.

    Per message: ``source = integers(n)``; then, when ``random() <
    hotspot_fraction`` and the source is not the hotspot, the destination
    is the hotspot, otherwise ``integers(n)`` re-drawn until it differs
    from the source (:func:`_hotspot_endpoints_scalar`).  On a compiled
    backend, with a plain ``PCG64`` generator and ``n < 2**32``, the
    ``hotspot_pairs`` kernel replays that loop from one block of raw
    words: the same pairs, and the generator left in the same state.
    """
    _check_count(num_messages)
    if num_nodes < 2:
        raise ValueError("hotspot traffic needs at least 2 nodes")
    if not 0 <= hotspot < num_nodes:
        raise ValueError("hotspot node out of range")
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ValueError("hotspot_fraction must be in [0, 1]")
    generator = _rng(rng)
    kernels = _kernels.get_kernels()
    if (
        kernels is not None
        and type(generator.bit_generator) is np.random.PCG64
        and num_nodes < 1 << 32
    ):
        endpoints = _hotspot_endpoints(
            kernels.hotspot_pairs,
            generator,
            num_nodes,
            num_messages,
            hotspot,
            hotspot_fraction,
        )
    else:
        endpoints = _hotspot_endpoints_scalar(
            generator, num_nodes, num_messages, hotspot, hotspot_fraction
        )
    return Traffic(*endpoints, np.zeros(num_messages))


def _hotspot_endpoints_scalar(
    generator: np.random.Generator,
    num_nodes: int,
    count: int,
    hotspot: int,
    hotspot_fraction: float,
) -> tuple[list[int], list[int]]:
    """The scalar hotspot loop: the oracle of the ``hotspot_pairs`` kernel."""
    sources, destinations = [], []
    for _ in range(count):
        source = int(generator.integers(num_nodes))
        if generator.random() < hotspot_fraction and source != hotspot:
            destination = hotspot
        else:
            destination = int(generator.integers(num_nodes))
            while destination == source:
                destination = int(generator.integers(num_nodes))
        sources.append(source)
        destinations.append(destination)
    return sources, destinations


def _hotspot_endpoints(
    kernel,
    generator: np.random.Generator,
    num_nodes: int,
    count: int,
    hotspot: int,
    hotspot_fraction: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The scalar hotspot loop, replayed by the compiled kernel.

    The kernel consumes a block of raw PCG64 words the way the scalar
    draws would (``integers(n)`` through the 32-bit half buffer,
    ``random()`` a whole word) and reports how many words it used and the
    buffer it left; the generator is then put in the state the scalar loop
    leaves: the saved state advanced by that many words, plus the buffer.
    A block that runs out is re-drawn twice as large from the saved state.
    """
    bit_generator = generator.bit_generator
    saved = bit_generator.state
    src = np.empty(count, dtype=np.int64)
    dst = np.empty(count, dtype=np.int64)
    size = 3 * count + 64
    while True:
        buffer = np.array([saved["has_uint32"], saved["uinteger"]], dtype=np.int64)
        words = bit_generator.random_raw(size)
        used = kernel(
            words, count, num_nodes, hotspot, hotspot_fraction, buffer, src, dst
        )
        bit_generator.state = saved
        if used >= 0:
            break
        size *= 2
    bit_generator.advance(used)
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = int(buffer[0]), int(buffer[1])
    bit_generator.state = state
    return src, dst


def broadcast_pairs(num_nodes: int, root: int = 0) -> Traffic:
    """Naive one-to-all broadcast as unicasts: the root sends to every other node.

    This is the *unicast emulation* of a broadcast; compare with the
    tree-based schedules of :mod:`repro.routing.broadcast` in the simulator
    benchmarks.
    """
    if not 0 <= root < num_nodes:
        raise ValueError("root out of range")
    others = np.delete(np.arange(num_nodes), root)
    return Traffic(np.full(others.size, root), others, np.zeros(others.size))


def all_to_all_pairs(num_nodes: int) -> Traffic:
    """Complete exchange: every ordered pair of distinct nodes gets one message."""
    nodes = np.arange(max(num_nodes, 0))
    sources = np.repeat(nodes, nodes.size)
    destinations = np.tile(nodes, nodes.size)
    distinct = sources != destinations
    return Traffic(sources[distinct], destinations[distinct], np.zeros(distinct.sum()))


# ---------------------------------------------------------------------------
# Multi-workload throughput driver
# ---------------------------------------------------------------------------
#: Workload names accepted by :func:`make_workload` / :func:`run_throughput_sweep`:
#: the arrival processes of :mod:`repro.simulation.scenarios` (uniform,
#: hotspot and permutation pairs; on/off trains; sinusoidally modulated
#: Poisson).
SWEEP_WORKLOADS = ("uniform", "hotspot", "permutation", "bursty", "diurnal")


def make_workload(
    name: str,
    num_nodes: int,
    num_messages: int,
    *,
    rng: np.random.Generator | int | None = None,
    rate: float | None = None,
    hotspot: int = 0,
    hotspot_fraction: float = 0.5,
) -> Traffic:
    """One named workload: the traffic of the arrival process ``name``.

    ``rate`` is the process's load knob (``with_rate``, the axis the
    scenario Pareto sweeps use too): for ``uniform``, ``hotspot`` and
    ``permutation``, ``rate=None`` injects every message at time 0 (the
    saturation regime the throughput curves start from) and a positive
    ``rate`` overlays Poisson arrival times of that aggregate rate.
    ``permutation`` ignores ``num_messages`` (one message per node).
    """
    # Runtime import: scenarios imports this module for the pair generators.
    from repro.simulation.scenarios import make_arrivals

    _check_count(num_messages)
    if name not in SWEEP_WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r} (expected one of {SWEEP_WORKLOADS})"
        )
    params = {} if name == "permutation" else {"num_messages": num_messages}
    if name == "hotspot":
        params.update(hotspot=hotspot, hotspot_fraction=hotspot_fraction)
    return make_arrivals(name, **params).with_rate(rate).traffic(num_nodes, rng)


@dataclass(frozen=True)
class SweepPoint:
    """One simulated ``(workload, rate, seed)`` combination of a sweep."""

    workload: str
    rate: float | None
    seed: int
    num_messages: int
    stats: NetworkStats


@dataclass
class ThroughputSweep:
    """Result of :func:`run_throughput_sweep`.

    ``points`` holds one :class:`SweepPoint` per ``(workload, rate, seed)``
    combination; :meth:`curves` aggregates the seeds of each ``(workload,
    rate)`` pair into one row of the throughput/latency curve.
    """

    graph_name: str
    num_nodes: int
    num_links: int
    link: LinkModel
    points: list[SweepPoint]
    wall_time_s: float
    #: The kernel backend the batched engine ran on (``"numpy"`` for the
    #: vectorised path, which a router only python calls can ask takes on
    #: every backend) — recorded so a ``wall_time_s`` in ``BENCH_sim.json``
    #: is attributable to a backend.
    kernel_backend: str = "numpy"

    def curves(self) -> list[dict]:
        """Throughput/latency curve rows, seeds averaged per (workload, rate)."""
        grouped: dict[tuple[str, float | None], list[SweepPoint]] = {}
        for point in self.points:
            grouped.setdefault((point.workload, point.rate), []).append(point)
        rows = []
        for workload, rate in sorted(
            grouped, key=lambda key: (key[0], key[1] is not None, key[1] or 0.0)
        ):
            points = grouped[(workload, rate)]
            stats = [point.stats for point in points]
            rows.append(
                {
                    "workload": workload,
                    "rate": rate,
                    "seeds": len(points),
                    "messages": sum(point.num_messages for point in points),
                    "delivered": sum(s.delivered for s in stats),
                    "throughput": float(np.mean([s.throughput() for s in stats])),
                    "mean_latency": float(np.mean([s.mean_latency for s in stats])),
                    "max_latency": float(np.max([s.max_latency for s in stats])),
                    "mean_hops": float(np.mean([s.mean_hops for s in stats])),
                    "max_link_queue": int(np.max([s.max_link_queue for s in stats])),
                }
            )
        return rows

    def to_json(self) -> dict:
        """JSON-serialisable summary (the ``BENCH_sim.json`` entry format)."""
        return {
            "graph": self.graph_name,
            "nodes": self.num_nodes,
            "links": self.num_links,
            "link_latency": self.link.latency,
            "link_transmission_time": self.link.transmission_time,
            "kernel_backend": self.kernel_backend,
            "wall_time_s": round(self.wall_time_s, 4),
            "curves": self.curves(),
        }


def sweep_combos(
    workloads: tuple[str, ...], rates: tuple[float | None, ...], seeds
) -> list[tuple[str, float | None, int]]:
    """The ``(workload, rate, seed)`` combinations of a sweep, in run order."""
    return [
        (workload, rate, int(seed))
        for workload in workloads
        for rate in rates
        for seed in seeds
    ]


def sweep_traffics(
    num_nodes: int,
    combos,
    num_messages: int,
    *,
    hotspot: int = 0,
    hotspot_fraction: float = 0.5,
) -> list[Traffic]:
    """One deterministic traffic per combination (seeded generators only).

    Because every traffic is a pure function of its combination, the
    sharded driver (:mod:`repro.simulation.sharding`) can regenerate them
    on any host and the chunk digests will agree.
    """
    return [
        make_workload(
            workload,
            num_nodes,
            num_messages,
            rng=seed,
            rate=rate,
            hotspot=hotspot,
            hotspot_fraction=hotspot_fraction,
        )
        for workload, rate, seed in combos
    ]


def assemble_throughput_sweep(
    graph: BaseDigraph,
    combos,
    traffics,
    stats_list,
    *,
    link: LinkModel,
    wall_time_s: float,
    kernel_backend: str = "numpy",
) -> ThroughputSweep:
    """Package per-combination stats into a :class:`ThroughputSweep`.

    Shared by the in-process driver and the fleet merge path, so both
    produce the same curves from the same stats.
    """
    points = [
        SweepPoint(
            workload=workload,
            rate=rate,
            seed=seed,
            num_messages=len(traffic),
            stats=stats,
        )
        for (workload, rate, seed), traffic, stats in zip(combos, traffics, stats_list)
    ]
    n = graph.num_vertices
    return ThroughputSweep(
        graph_name=graph.name or f"digraph(n={n})",
        num_nodes=n,
        num_links=graph.num_arcs,
        link=link,
        points=points,
        wall_time_s=wall_time_s,
        kernel_backend=kernel_backend,
    )


def run_throughput_sweep(
    graph: BaseDigraph,
    *,
    workloads: tuple[str, ...] = ("uniform",),
    rates: tuple[float | None, ...] = (None,),
    seeds=range(3),
    num_messages: int = 1000,
    link: LinkModel | None = None,
    router=None,
    hotspot: int = 0,
    hotspot_fraction: float = 0.5,
    until: float | None = None,
) -> ThroughputSweep:
    """Run every ``(workload, rate, seed)`` combination on one topology.

    One router is built and shared across combinations (``router`` is a
    :class:`~repro.routing.routers.Router` or a kind; ``None`` defaults to
    the ``"auto"`` policy: the table router for small topologies,
    table-free routing above
    :data:`repro.routing.routers.AUTO_DENSE_MAX_N` vertices).  All
    combinations are stacked into a single
    :meth:`~repro.simulation.network.BatchedNetworkSimulator.run_many` pass
    (per-combination results are bit-identical to running each through the
    reference :class:`~repro.simulation.network.NetworkSimulator`).
    """
    n = graph.num_vertices
    combos = sweep_combos(workloads, rates, seeds)
    traffics = sweep_traffics(
        n, combos, num_messages, hotspot=hotspot, hotspot_fraction=hotspot_fraction
    )
    simulator = BatchedNetworkSimulator(graph, link=link, router=router)
    start = _time.perf_counter()
    results = simulator.run_many(traffics, until=until, return_messages=False)
    stats_list = [stats for stats, _ in results]
    wall = _time.perf_counter() - start
    return assemble_throughput_sweep(
        graph,
        combos,
        traffics,
        stats_list,
        link=simulator.link,
        wall_time_s=wall,
        kernel_backend=simulator.kernel_backend,
    )
