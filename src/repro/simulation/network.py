"""Store-and-forward network simulation on top of a digraph topology.

The model is intentionally simple and matches how the multihop optical
networks cited by the paper (ShuffleNet, GEMNET, stack-Kautz, refs. [13, 22,
27]) are usually analysed at the topology level:

* every node has one injection port and ``d`` output links (its out-arcs);
  parallel arcs are *distinct* links, so a multigraph topology really has the
  extra capacity its arc multiset promises;
* a link transmits one message at a time; a message occupies a link for
  ``link.transmission_time`` and arrives ``link.latency`` later
  (store-and-forward, no cut-through);
* routing is deterministic shortest-path through a pluggable
  :class:`repro.routing.routers.Router`: the dense all-pairs table for small
  Bruijn/Kautz/``H(d^p', d^q', d)`` families, or destination-keyed table
  columns for every other digraph — bit-identical on routes, so the engine
  parity contract is router-independent;
* link contention is resolved FIFO.

The per-hop latency/transmission constants default to the OTIS hardware
model values (:class:`repro.otis.hardware.HardwareModel`), so simulating the
same logical topology with an electrical link model versus the free-space
optical one reproduces the qualitative speed/power comparison that motivates
the paper (Section 1).

Two engines implement the model:

* :class:`NetworkSimulator` — the reference: every run, healthy or
  degraded, is one pass of the event-at-a-time loop :func:`_scenario_loop`
  (heap of callback closures), a healthy run being a scenario with
  nothing degrading it.  Kept as the cross-checked oracle, exactly as
  ``repro.graphs.apsp`` kept the matrix reference paths.
* :class:`BatchedNetworkSimulator` — the vectorised hot path.  Per-link state
  (``busy_until``, FIFO queue depth) and per-message state (location, hop
  count, pending-event deadline) are pooled into numpy arrays keyed by
  link/message index; each step pops *all* events sharing the minimum
  timestamp (:class:`repro.simulation.events.BatchEventQueue`) and resolves
  link acquisitions, queue pushes and arrivals as whole-array operations.
  On a compiled backend, a run without ``trace`` whose router is a table
  router or has a ``shift_spec()`` is instead one call of the ``run_rounds``
  kernel (this numpy path is its oracle); :attr:`BatchedNetworkSimulator.
  kernel_backend` names the path that runs.

Batched-engine contract (what is vectorised, what stays FIFO-exact):

* Event *selection* is batched, event *semantics* are not: simultaneous
  events resolve in insertion-sequence order, matching the reference heap.
* Earliest-free parallel-link selection within a batch is a k-way merge of
  the per-link free-time chains of each ``(u, v)`` link group (ties broken by
  link id), which is provably the same assignment the one-at-a-time greedy
  argmin produces.
* Floating-point arithmetic replicates the reference op-for-op: start times
  are built by sequential ``+ transmission_time`` accumulation (``cumsum``
  chains), never by ``start + k*T``, so ``NetworkStats`` and per-message
  latency histograms are *bit-identical* between engines (enforced by
  ``tests/test_simulation_parity.py``).
* Per-link FIFO order is exact: messages reserving one link are served in
  event order, never reordered by the batching.
* :meth:`BatchedNetworkSimulator.run_many` stacks independent workloads into
  one pooled simulation (replicated link arrays, shared router), which is
  how the sweep driver runs many seeds/load levels in one pass; the
  process-sharded scale-out lives in :mod:`repro.simulation.sharding`.

Scenario runs (degraded-mode contract):

Both engines accept ``scenario=`` (a :class:`repro.simulation.scenarios.
Scenario`) composing finite link buffers (:class:`BufferedLinkModel`),
deterministic fault timelines and a reroute policy on top of the healthy
model.  The reference runs every scenario through its one loop,
:func:`_scenario_loop`, the oracle of the degraded-mode semantics.  In the
batched engine, a scenario that actually degrades the network
(``scenario.needs_event_exact()``) is simulated one event at a time: the
whole pass runs in the compiled ``run_scenario`` kernel, with the same
scalar float ops, when the backend is compiled, the router is a table
router or has a ``shift_spec()``, and no ``trace`` is requested;
otherwise the engine runs :func:`_scenario_loop` once per workload over
its own link groups.  The bit-identical parity contract thus extends to
every layer combination — failures, finite buffers, retransmits,
deflection rerouting (enforced by ``tests/test_scenarios.py`` and
``tests/test_kernel_parity.py``).  An arrival-only scenario (default link,
no faults) runs through the batched engine's healthy path: healthy
workloads pay nothing for the scenario seam.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import kernels as _kernels
from repro.graphs.digraph import BaseDigraph
from repro.routing.routers import (
    AUTO_DENSE_MAX_N,
    DenseTableRouter,
    Router,
    ShiftSpec,
    resolve_router,
)
from repro.simulation.events import BatchEventQueue, Simulator

__all__ = [
    "LinkModel",
    "BufferedLinkModel",
    "Message",
    "Traffic",
    "validate_traffic",
    "NetworkStats",
    "NetworkSimulator",
    "BatchedNetworkSimulator",
]


@dataclass(frozen=True)
class LinkModel:
    """Timing parameters of one network link.

    Attributes
    ----------
    latency:
        Propagation + conversion delay of a hop (time units; ns if fed from
        the hardware model).
    transmission_time:
        Time the link stays busy per message (serialisation time).  This *is*
        the message size in time units (``message_bits / rate`` in
        :meth:`from_hardware`), so the "no negative/NaN message sizes" checks
        live here, at construction, not deep in the engines.
    """

    latency: float = 1.0
    transmission_time: float = 1.0

    def __post_init__(self):
        for name in ("latency", "transmission_time"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )

    @classmethod
    def from_hardware(
        cls, hardware, *, message_bits: float = 1024.0, rate_gbps: float = 1.0
    ) -> "LinkModel":
        """Build a link model from a :class:`repro.otis.hardware.HardwareModel`.

        The latency is the optical one-hop latency (conversion + free-space
        flight); the transmission time is ``message_bits / rate``.  Both
        parameters must be positive — a zero or negative ``rate_gbps`` would
        silently produce an infinite or *negative* transmission time, which
        the simulators would then treat as a link that is never (or always)
        free.
        """
        if rate_gbps <= 0:
            raise ValueError(
                f"rate_gbps must be positive, got {rate_gbps!r} "
                "(a link cannot transmit at zero or negative rate)"
            )
        if message_bits <= 0:
            raise ValueError(f"message_bits must be positive, got {message_bits!r}")
        return cls(
            latency=hardware.optical_latency_ns(),
            transmission_time=message_bits / rate_gbps,
        )


#: ``BufferedLinkModel.on_full`` policies.
ON_FULL_POLICIES = ("drop", "retry")


@dataclass(frozen=True)
class BufferedLinkModel(LinkModel):
    """A :class:`LinkModel` with a finite per-link FIFO queue (backpressure).

    ``capacity`` bounds the number of messages simultaneously queued on (or
    in service at) one link — exactly the quantity the engines already track
    as the per-link FIFO depth (``max_link_queue`` reports its peak).  When
    every live parallel link between two endpoints is at capacity, the
    arriving message is either dropped (``on_full="drop"``, counted in
    ``NetworkStats.dropped_buffer``) or re-offered after ``retry_delay``
    (``on_full="retry"``, counted in ``retransmits``), up to ``max_retries``
    times before it is dropped after all.  ``capacity=None`` is the
    infinite-buffer base model; ``capacity=0`` is the degenerate
    nothing-ever-transmits configuration (every message drops or exhausts
    its retries — never hangs).
    """

    capacity: int | None = None
    on_full: str = "drop"
    retry_delay: float = 1.0
    max_retries: int = 16

    def __post_init__(self):
        super().__post_init__()
        if self.capacity is not None and self.capacity < 0:
            raise ValueError(f"capacity must be >= 0 or None, got {self.capacity!r}")
        if self.on_full not in ON_FULL_POLICIES:
            raise ValueError(
                f"on_full must be one of {ON_FULL_POLICIES}, got {self.on_full!r}"
            )
        if not (np.isfinite(self.retry_delay) and self.retry_delay > 0):
            raise ValueError(
                f"retry_delay must be finite and positive, got {self.retry_delay!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")


@dataclass
class Message:
    """One message travelling through the network.

    Attributes
    ----------
    ident:
        Unique message id.
    source, destination:
        Endpoints (node indices).
    creation_time:
        Time the message was injected at the source.
    arrival_time:
        Time it reached its destination (NaN until delivered).
    hops:
        Number of links traversed so far.
    drop_reason:
        None for delivered (or still-undelivered) messages; ``"buffer"``,
        ``"fault"`` or ``"hops"`` when a scenario run discarded the message
        (full buffers, a severed/down path, or the hop TTL).  Messages whose
        destination is unreachable in the healthy topology keep ``None`` —
        they are plain undelivered, same as in the base model.
    """

    ident: int
    source: int
    destination: int
    creation_time: float
    arrival_time: float = float("nan")
    hops: int = 0
    drop_reason: str | None = None

    @property
    def delivered(self) -> bool:
        """True once the message has reached its destination."""
        return not np.isnan(self.arrival_time)

    @property
    def latency(self) -> float:
        """End-to-end latency (NaN until delivered)."""
        return self.arrival_time - self.creation_time


def _frozen(values, dtype) -> np.ndarray:
    """A read-only 1-D copy of ``values`` as a ``dtype`` array."""
    column = np.array(values, dtype=dtype)
    if column.ndim != 1:
        raise ValueError("traffic columns must be one-dimensional")
    column.flags.writeable = False
    return column


class Traffic(Sequence):
    """A workload of ``(source, destination, injection_time)`` messages,
    held as three read-only columns.

    ``src`` and ``dst`` are int64 arrays and ``t`` a float64 array of one
    length, copied from what the constructor is given, so a ``Traffic``
    (and its ``traffic_digest``) never changes.  A ``Traffic`` behaves as the list of triples it stands for:
    it iterates as ``(int, int, float)`` Python tuples, supports ``len``
    and indexing (a slice is a ``Traffic``), and compares ``==`` with any
    sequence of triples.  ``np.asarray(traffic)`` is the ``(N, 3)``
    float64 array of the triples.  The engines read the columns directly.
    """

    __slots__ = ("src", "dst", "t")
    __hash__ = None

    def __init__(self, src, dst, t):
        self.src = _frozen(src, np.int64)
        self.dst = _frozen(dst, np.int64)
        self.t = _frozen(t, np.float64)
        if not self.src.shape == self.dst.shape == self.t.shape:
            raise ValueError("traffic columns must have one length")

    def with_times(self, t) -> "Traffic":
        """The same endpoint pairs injected at times ``t``."""
        return Traffic(self.src, self.dst, t)

    def __len__(self) -> int:
        return self.src.shape[0]

    def __iter__(self):
        return zip(self.src.tolist(), self.dst.tolist(), self.t.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Traffic(self.src[index], self.dst[index], self.t[index])
        return int(self.src[index]), int(self.dst[index]), float(self.t[index])

    def __eq__(self, other):
        if isinstance(other, Traffic):
            return (
                np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst)
                and np.array_equal(self.t, other.t)
            )
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    def __array__(self, dtype=None, copy=None):
        array = np.empty((len(self), 3))
        array[:, 0] = self.src
        array[:, 1] = self.dst
        array[:, 2] = self.t
        return array if dtype is None else array.astype(dtype, copy=False)

    def __reduce__(self):
        return Traffic, (self.src, self.dst, self.t)

    def __repr__(self) -> str:
        return f"Traffic({len(self)} messages)"


def _columns_of_triples(triples) -> tuple[Traffic, ValueError | None]:
    """``triples`` as a :class:`Traffic`, through one ``(N, 3)`` float array.

    Input that is not such an array (ragged, or not triples) is read one
    message at a time up to the first message that is not a triple: the
    result then holds the messages before it, and the error names it.
    """
    try:
        array = np.asarray(triples, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is not None and array.shape == (0,):
        array = array.reshape(0, 3)
    error = None
    if array is None or array.ndim != 2 or array.shape[1] != 3:
        rows = []
        for ident, triple in enumerate(triples):
            try:
                source, destination, release = triple
                rows.append((float(source), float(destination), float(release)))
            except (TypeError, ValueError):
                error = ValueError(
                    f"message {ident} is not a (source, destination, time) "
                    f"triple: {triple!r}"
                )
                break
        array = np.array(rows, dtype=float).reshape(-1, 3)
    return Traffic(array[:, 0], array[:, 1], array[:, 2]), error


def validate_traffic(traffic, num_nodes: int | None = None) -> Traffic:
    """Fail fast on malformed traffic; returns it as a :class:`Traffic`.

    The one traffic check: both engines run it on every workload, and
    :meth:`repro.simulation.scenarios.Scenario.traffic` on every draw.  It
    raises ``ValueError`` naming the first bad message — one that is not a
    ``(source, destination, time)`` triple, has a NaN, negative or infinite
    release time or (when ``num_nodes`` is given) an endpoint out of range;
    within a message the release time is checked before the endpoints.  A
    :class:`Traffic` comes back unchanged, checked with array operations.
    (Message *sizes* live in the link model: ``transmission_time`` is the
    size in time units, validated by ``LinkModel.__post_init__``.)
    """
    malformed = None
    if not isinstance(traffic, Traffic):
        traffic, malformed = _columns_of_triples(traffic)
    bad = ~(np.isfinite(traffic.t) & (traffic.t >= 0))
    if num_nodes is not None:
        bad |= (traffic.src < 0) | (traffic.src >= num_nodes)
        bad |= (traffic.dst < 0) | (traffic.dst >= num_nodes)
    if bad.any():
        ident = int(np.flatnonzero(bad)[0])
        release = float(traffic.t[ident])
        if not (math.isfinite(release) and release >= 0):
            raise ValueError(
                f"message {ident} has invalid release time {release!r} "
                "(must be finite and non-negative)"
            )
        raise ValueError(f"message {ident} has endpoints out of range")
    if malformed is not None:
        raise malformed
    return traffic


@dataclass
class NetworkStats:
    """Aggregate statistics of one simulation run.

    The scenario counters (all zero in base-model runs) break the
    ``undelivered`` total down by cause: ``dropped_buffer`` (full finite
    buffers), ``dropped_fault`` (down node, or no live path and no reroute),
    ``dropped_hops`` (hop TTL exhausted).  ``retransmits`` counts retry
    re-offers under ``on_full="retry"`` and ``rerouted_hops`` counts
    transmissions that left the shortest-path next hop for a fault detour.
    """

    delivered: int
    undelivered: int
    makespan: float
    mean_latency: float
    max_latency: float
    mean_hops: float
    max_link_queue: int
    total_link_busy_time: float
    dropped_buffer: int = 0
    dropped_fault: int = 0
    dropped_hops: int = 0
    retransmits: int = 0
    rerouted_hops: int = 0

    def throughput(self) -> float:
        """Delivered messages per unit time (0 when nothing was delivered)."""
        if self.makespan <= 0 or self.delivered == 0:
            return 0.0
        return self.delivered / self.makespan


def _not_an_arc(node: int, hop: int) -> ValueError:
    """The error for a router that sends a message over a non-existent link."""
    return ValueError(
        f"the router's next hop from node {node} is {hop}, but ({node}, {hop}) "
        "is not an arc of the topology"
    )


class _LinkGroups:
    """Array-pooled link topology: arcs grouped by ``(tail, head)``.

    Every arc is its own physical link: parallel arcs (common in OTIS
    digraphs such as ``H(1, 4, 2)``) are distinct optical channels, so two
    simultaneous messages between the same endpoints do not contend.
    Links are arc indices in ``graph.arcs()`` enumeration order, the
    numbering both engines and fault plans use.  Groups are the distinct
    ``(u, v)`` pairs, sorted by the scalar key ``u * n + v``;
    ``flat_links[group_ptr[g]:group_ptr[g+1]]`` holds the parallel link ids of
    group ``g`` in ascending id order, so the tie-break "lowest link id wins"
    falls out of array order.
    """

    def __init__(self, graph: BaseDigraph):
        n = graph.num_vertices
        arcs = list(graph.arcs())
        m = len(arcs)
        tails = np.fromiter((u for u, _ in arcs), dtype=np.int64, count=m)
        heads = np.fromiter((v for _, v in arcs), dtype=np.int64, count=m)
        keys = tails * n + heads
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if m:
            group_starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(sorted_keys)) + 1)
            )
        else:
            group_starts = np.zeros(0, dtype=np.int64)
        self.num_vertices = n
        self.num_links = m
        self.flat_links = order.astype(np.int64)
        self.group_ptr = np.concatenate((group_starts, [m])).astype(np.int64)
        self.group_keys = sorted_keys[group_starts]
        # the keys plus a -1 sentinel, so a key past the last one misses
        self._probe_keys = np.append(self.group_keys, -1)
        self.group_size = np.diff(self.group_ptr)
        self.num_groups = int(self.group_keys.shape[0])
        # the (lowest-id) link of every group — the only link for 1-arc groups
        self.first_link = (
            self.flat_links[group_starts] if m else np.zeros(0, dtype=np.int64)
        )
        # scalar-path lookup: (u * n + v) -> ascending list of link ids
        ptr = self.group_ptr.tolist()
        flat = self.flat_links.tolist()
        self._links_by_key = {
            int(key): flat[ptr[g] : ptr[g + 1]]
            for g, key in enumerate(self.group_keys.tolist())
        }
        # per-vertex range into the sorted (u*n + v) group keys: vertex u's
        # groups (its distinct out-neighbours, ascending) are
        # vertex_groups[u]:vertex_groups[u + 1], at most out-degree of them
        self.vertex_groups = np.searchsorted(
            self.group_keys // max(n, 1), np.arange(n + 1)
        ).astype(np.int64)

    def links(self, u: int, v: int) -> list[int] | None:
        """Ascending link ids of the ``(u, v)`` arcs (None: not an arc)."""
        if not 0 <= v < self.num_vertices:
            return None
        return self._links_by_key.get(u * self.num_vertices + v)

    def neighbors(self, u: int) -> list[int]:
        """The distinct out-neighbours of ``u``, ascending."""
        lo, hi = self.vertex_groups[u], self.vertex_groups[u + 1]
        return (self.group_keys[lo:hi] - u * self.num_vertices).tolist()

    def group_of(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Group index of each ``(tail, head)`` arc pair.

        Raises ``ValueError`` naming the first pair that is not an arc.
        """
        keys = tails * self.num_vertices + heads
        gid = np.searchsorted(self.group_keys, keys)
        missing = (self._probe_keys[gid] != keys) | (heads >= self.num_vertices)
        if missing.any():
            first = int(np.flatnonzero(missing)[0])
            raise _not_an_arc(int(tails[first]), int(heads[first]))
        return gid


class _ScenarioState:
    """Mutable fault/reroute state of a scenario run (loop or kernel).

    Owns the link/node up-down flags, applies :class:`~repro.simulation.
    scenarios.FaultPlan` events (fail-stop: a fault flips a flag; in-flight
    transmissions complete, only *new* acquisitions see it) and answers
    next-hop queries under the scenario's reroute policy.  It performs **no**
    floating-point time arithmetic — transmission timing stays in
    :func:`_scenario_loop` and the kernel, so the float side of the parity
    contract is enforced between two independent implementations.

    The topology is the engine's :class:`_LinkGroups` (the parallel link
    ids of every arc and the distinct out-neighbours of every vertex); only
    the up/down flags are built per run.  ``scenario=None`` is the healthy
    network, like the default ``Scenario()``: no fault events, no TTL.

    The ``"arc-disjoint"`` policy is greedy deflection over the healthy hop
    counts of ``table``, a :class:`~repro.routing.routers.DenseTableRouter`
    of the topology: when the shortest-path next hop is severed, pick the
    live out-neighbour
    minimising ``(healthy distance to destination, neighbour id)``.  On the
    paper's topologies this walks one of the ``d`` arc-disjoint paths the
    de Bruijn/Kautz structure guarantees, which is exactly the graceful
    degradation the scenario suite measures.
    """

    def __init__(
        self,
        scenario,
        router: Router,
        table: DenseTableRouter | None,
        groups: _LinkGroups,
    ):
        self.router = router
        self.groups = groups
        n = groups.num_vertices
        m = groups.num_links
        self.link_down = np.zeros(m, dtype=bool)
        self.node_down = np.zeros(n, dtype=bool)
        healthy = scenario is None
        self.fault_events = () if healthy else tuple(scenario.faults.events)
        for event in self.fault_events:
            bound = m if event.kind.startswith("link") else n
            if not 0 <= event.target < bound:
                raise ValueError(
                    f"fault event targets {event.kind.split('_')[0]} "
                    f"{event.target}, out of range for this topology"
                )
        #: The per-message hop TTL (None: unlimited).
        self.ttl = None if healthy else scenario.effective_max_hops(n)
        #: The table router of the healthy hop counts under
        #: ``"arc-disjoint"``, else None.
        self.table = table

    def apply_fault(self, index: int) -> None:
        event = self.fault_events[index]
        if event.kind == "link_down":
            self.link_down[event.target] = True
        elif event.kind == "link_up":
            self.link_down[event.target] = False
        elif event.kind == "node_down":
            self.node_down[event.target] = True
        else:  # node_up
            self.node_down[event.target] = False

    def live_links(self, node: int, neighbor: int) -> list[int]:
        """The live links ``node -> neighbor`` a new hop may take (none
        when the neighbour is down), ascending."""
        if self.node_down[neighbor]:
            return []
        links = self.groups.links(node, neighbor)
        return [lid for lid in links if not self.link_down[lid]]

    def choose(self, node: int, destination: int) -> tuple[int, bool, list[int]]:
        """Next hop under the reroute policy.

        Returns ``(next_node, rerouted, live_links)``; ``next_node`` is
        ``-1`` when the destination is unreachable in the healthy topology
        (plain undelivered, as in the base model) and ``-2`` when faults
        sever every permitted hop (drop reason ``"fault"``).  A router
        naming a hop that is not an arc raises ``ValueError``.
        """
        primary = self.router.next_hop(node, destination)
        if primary < 0:
            return -1, False, []
        if self.groups.links(node, primary) is None:
            raise _not_an_arc(node, primary)
        live = self.live_links(node, primary)
        if live:
            return primary, False, live
        if self.table is None:  # reroute == "none"
            return -2, False, []
        col, _, hops = self.table.columns([destination])
        to_destination = hops[col[destination]]
        best, best_distance, best_live = -2, -1, []
        for neighbor in self.groups.neighbors(node):
            if neighbor == primary:
                continue
            live = self.live_links(node, neighbor)
            distance = int(to_destination[neighbor])
            if not live or distance < 0:
                continue
            if best == -2 or distance < best_distance:
                best, best_distance, best_live = neighbor, distance, live
        return best, best != -2, best_live


def _reroute_table(
    graph: BaseDigraph, scenario, router: Router
) -> DenseTableRouter | None:
    """The table router whose hop counts a degrading ``scenario``'s
    ``"arc-disjoint"`` reroute reads: the run's own router when it is one,
    else one built for ``graph``.  None for every other scenario."""
    if scenario is None or scenario.reroute != "arc-disjoint":
        return None
    n = graph.num_vertices
    if n > AUTO_DENSE_MAX_N:
        raise ValueError(
            "arc-disjoint reroute needs the dense-table regime "
            f"(n <= {AUTO_DENSE_MAX_N}, got n={n})"
        )
    if isinstance(router, DenseTableRouter):
        return router
    return DenseTableRouter(graph)


def _new_messages(src, dst, created) -> list[Message]:
    """Fresh per-message records of validated traffic columns."""
    return [
        Message(ident, source, destination, time)
        for ident, (source, destination, time) in enumerate(
            zip(src.tolist(), dst.tolist(), created.tolist())
        )
    ]


def _record_stats(
    messages: list[Message], makespan: float, max_queue: int, busy_time: float, **counters
) -> NetworkStats:
    """The statistics of a scalar loop's finished message records."""
    delivered = [m for m in messages if m.delivered]
    latencies = np.array([m.latency for m in delivered], dtype=float)
    hops = np.array([m.hops for m in delivered], dtype=float)
    return NetworkStats(
        delivered=len(delivered),
        undelivered=len(messages) - len(delivered),
        makespan=makespan,
        mean_latency=float(latencies.mean()) if latencies.size else 0.0,
        max_latency=float(latencies.max()) if latencies.size else 0.0,
        mean_hops=float(hops.mean()) if hops.size else 0.0,
        max_link_queue=max_queue,
        total_link_busy_time=busy_time,
        **counters,
    )


def _scenario_loop(
    state: _ScenarioState,
    link: LinkModel,
    messages: list[Message],
    *,
    until: float | None = None,
    max_events: int | None = None,
    trace: list | None = None,
) -> tuple[NetworkStats, list[Message]]:
    """The Python event loop of one workload: buffers, faults, rerouting.

    The one scalar implementation of the network model, run by the
    reference for every run and by the batched engine for a degrading
    scenario it cannot hand to the ``run_scenario`` kernel (whose oracle
    it is).  A healthy run (``state`` of no scenario or of one that
    degrades nothing) is a scenario run in which no layer bites.
    Otherwise: fault events are scheduled *before* any message injection
    (lower sequence, so a fault at ``t`` is visible to every message event
    at ``t`` — the fault-at-t=0 degenerate case included), full finite
    buffers drop or re-offer, and severed primary hops consult the reroute
    policy.  The run starts from the healthy network (it clears the
    state's up/down flags).  ``trace``, when given a list, receives one
    ``(link_ids, start_times, message_indices)`` triple of one-element
    arrays per transmission, in chronological order.
    """
    capacity = getattr(link, "capacity", None)
    on_full = getattr(link, "on_full", "drop")
    retry_delay = getattr(link, "retry_delay", 1.0)
    max_retries = getattr(link, "max_retries", 0)
    state.link_down[:] = False
    state.node_down[:] = False
    ttl = state.ttl

    sim = Simulator()
    link_free_at = np.zeros(state.link_down.size)
    link_queue_len = np.zeros(state.link_down.size, dtype=np.int64)
    max_queue = 0
    busy_time = 0.0
    counters = {
        "dropped_buffer": 0,
        "dropped_fault": 0,
        "dropped_hops": 0,
        "retransmits": 0,
        "rerouted_hops": 0,
    }
    retries = [0] * len(messages)

    # Faults first: at equal timestamps they outrank message events.
    for index, event in enumerate(state.fault_events):
        sim.schedule_at(event.time, lambda k=index: state.apply_fault(k))

    def drop(message: Message, reason: str) -> None:
        message.drop_reason = reason
        counters["dropped_" + reason] += 1

    def forward(message: Message, node: int) -> None:
        nonlocal max_queue, busy_time
        if state.node_down[node]:
            drop(message, "fault")
            return
        if node == message.destination:
            message.arrival_time = sim.now
            return
        if ttl is not None and message.hops >= ttl:
            drop(message, "hops")
            return
        next_node, rerouted, live = state.choose(node, message.destination)
        if next_node == -1:
            return  # unreachable in the healthy topology: plain undelivered
        if next_node == -2:
            drop(message, "fault")
            return
        if capacity is not None:
            live = [lid for lid in live if link_queue_len[lid] < capacity]
        if not live:
            if on_full == "retry" and retries[message.ident] < max_retries:
                retries[message.ident] += 1
                counters["retransmits"] += 1
                sim.schedule_at(
                    sim.now + retry_delay,
                    lambda m=message, at=node: forward(m, at),
                )
            else:
                drop(message, "buffer")
            return
        link_id = min(live, key=lambda lid: (float(link_free_at[lid]), lid))
        start = max(sim.now, float(link_free_at[link_id]))
        finish = start + link.transmission_time
        link_free_at[link_id] = finish
        link_queue_len[link_id] += 1
        max_queue = max(max_queue, int(link_queue_len[link_id]))
        busy_time += link.transmission_time
        if rerouted:
            counters["rerouted_hops"] += 1
        if trace is not None:
            trace.append(
                (
                    np.array([link_id], dtype=np.int64),
                    np.array([start]),
                    np.array([message.ident], dtype=np.int64),
                )
            )

        def deliver(msg=message, nxt=next_node, lid=link_id) -> None:
            link_queue_len[lid] -= 1
            msg.hops += 1
            forward(msg, nxt)

        sim.schedule_at(finish + link.latency, deliver)

    for message in messages:
        sim.schedule_at(
            message.creation_time, lambda m=message: forward(m, m.source)
        )
    makespan = sim.run(until=until, max_events=max_events)
    return _record_stats(messages, makespan, max_queue, busy_time, **counters), messages


class NetworkSimulator:
    """Simulate store-and-forward message delivery on a digraph.

    The reference engine: every run is one pass of the Python event loop
    :func:`_scenario_loop`, one event at a time, with or without a
    scenario (a healthy run is a scenario in which nothing degrades).

    Parameters
    ----------
    graph:
        The network topology; nodes are processors, arcs are unidirectional
        links (exactly the semantics of the OTIS digraphs).
    link:
        Timing parameters applied to every link.
    router:
        A :class:`repro.routing.routers.Router` instance or kind string
        (``"auto"``, ``"dense"``, ``"closed-form"``).  The default
        ``"auto"`` keeps the table router for small topologies and goes
        table-free above :data:`repro.routing.routers.AUTO_DENSE_MAX_N`
        vertices.  Pass one router instance to several simulators to build
        its table once.
    scenario:
        Optional :class:`repro.simulation.scenarios.Scenario`.  Mutually
        exclusive with ``link`` (the scenario carries its own link model);
        its buffers, faults and reroute policy apply to every run, and an
        arrival-only scenario behaves exactly like the base model.
    """

    def __init__(
        self,
        graph: BaseDigraph,
        link: LinkModel | None = None,
        *,
        router: Router | str | None = None,
        scenario=None,
    ):
        if scenario is not None and link is not None:
            raise ValueError(
                "pass link= or scenario= (the scenario carries its link model), "
                "not both"
            )
        self.graph = graph
        self.scenario = scenario
        self.link = scenario.link if scenario is not None else (link or LinkModel())
        self.router = resolve_router(graph, router=router)
        self._reroute = _reroute_table(graph, scenario, self.router)
        self._groups = _LinkGroups(graph)

    # ------------------------------------------------------------------ run
    def run(
        self,
        traffic: list[tuple[int, int, float]],
        *,
        until: float | None = None,
        max_events: int | None = None,
    ) -> tuple[NetworkStats, list[Message]]:
        """Simulate a list of ``(source, destination, injection_time)`` messages.

        Returns the aggregate statistics and the per-message records.
        Messages whose destination is unreachable are counted as undelivered.
        """
        src, dst, created, _, _ = _pool_traffics([traffic], self.graph.num_vertices)
        state = _ScenarioState(self.scenario, self.router, self._reroute, self._groups)
        return _scenario_loop(
            state,
            self.link,
            _new_messages(src, dst, created),
            until=until,
            max_events=max_events,
        )


# ---------------------------------------------------------------------------
# Batched engine
# ---------------------------------------------------------------------------
#: Batches at or below this size run the per-event scalar path; above it the
#: vector path wins.  Both paths are float-exact, so this is purely a tuning
#: knob (break-even is a few dozen events per batch).
_SCALAR_BATCH_CUTOFF = 32


def _sequential_sum(count: int, term: float) -> float:
    """The fold of ``count`` sequential additions of ``term`` onto ``0.0``.

    Replicates the reference loop's ``busy_time += transmission_time``
    accumulation bit-for-bit (``np.cumsum`` accumulates left to right, unlike
    pairwise ``np.sum``).  While ``count`` times the odd numerator of
    ``term`` stays below ``2**53``, every partial sum ``i * term`` is a
    float, so each addition is exact and the fold is the one product.
    """
    if count <= 0:
        return 0.0
    term = float(term)
    if math.isfinite(term) and count * abs(term.as_integer_ratio()[0]) < 2**53:
        return count * term
    return float(np.cumsum(np.full(count, term))[-1])


def _pool_traffics(traffics, n: int):
    """Flatten per-replica traffics into pooled arrays, each one checked by
    :func:`validate_traffic`; returns ``(src, dst, created, counts,
    offsets)``."""
    columns = [validate_traffic(traffic, n) for traffic in traffics]
    counts = np.array([len(traffic) for traffic in columns], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    N = int(offsets[-1])
    src = np.concatenate([c.src for c in columns]) if N else np.zeros(0, dtype=np.int64)
    dst = np.concatenate([c.dst for c in columns]) if N else np.zeros(0, dtype=np.int64)
    created = np.concatenate([c.t for c in columns]) if N else np.zeros(0)
    # Release times reach every engine through here: turn ``-0.0`` into
    # ``+0.0`` once, or the reference keeps the sign in its event times
    # while the batched buckets (which merge +-0.0) drop it.
    created += 0.0
    return src, dst, created, counts, offsets


def _pooled_state(traffics, n: int, m: int):
    """Pool ``traffics`` and allocate the run state of every replica.

    Returns ``(src, created, offsets, state)``.  ``state`` holds the arrays
    a run updates in place, in the kernels' order: per message ``loc``
    (current node), ``dst``, ``hops``, ``arrival`` (NaN until delivered),
    ``prev_link`` (replicated link id, -1 before the first hop) and ``rep``
    (replica index); ``last_time`` per replica; ``busy_until`` and
    ``queue_len`` per replicated link (``R * m`` of them, so workloads
    never contend); ``max_queue`` and ``tx_count`` per replica.
    """
    src, dst, created, counts, offsets = _pool_traffics(traffics, n)
    R = len(traffics)
    N = int(offsets[-1])
    state = (
        src.copy(),
        dst,
        np.zeros(N, dtype=np.int64),
        np.full(N, np.nan),
        np.full(N, -1, dtype=np.int64),
        np.repeat(np.arange(R, dtype=np.int64), counts),
        np.zeros(R),
        np.zeros(R * m),
        np.zeros(R * m, dtype=np.int64),
        np.zeros(R, dtype=np.int64),
        np.zeros(R, dtype=np.int64),
    )
    return src, created, offsets, state


#: The scenario kernel's ``drop_code`` -> ``Message.drop_reason``.  Codes
#: 1-3 are also the columns of the drop counts among each replica's five
#: scenario counters (retransmits, fault, hops, buffer, rerouted hops).
_DROP_REASONS = (None, "fault", "hops", "buffer")

#: The scenario kernel's fault event codes.
_FAULT_CODES = {"link_down": 0, "link_up": 1, "node_down": 2, "node_up": 3}

#: "No table": the kernels route by shift spec / never reroute.
_NO_TABLE = np.zeros(0, dtype=np.int64)
_NO_HOPS = np.zeros((0, 0), dtype=np.int32)
_NO_COLUMNS = (np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.uint8), _NO_TABLE)
#: The (unused) shift spec passed alongside table columns.
_UNUSED_SHIFT = ShiftSpec(2, 1, _NO_TABLE, _NO_TABLE, False)


def _raise_kernel_status(status: int, meta: np.ndarray) -> None:
    """Raise the error a simulator kernel reported through its status.

    1: the router named a hop that is not an arc (``meta`` = node, hop);
    2: a pair outside the closed-form relabelling (node, target).
    """
    if status == 2:
        raise IndexError(
            f"the router cannot route ({meta[0]}, {meta[1]}): a "
            "vertex outside its relabelling"
        )
    if status:
        raise _not_an_arc(int(meta[0]), int(meta[1]))


def _replica_results(
    src,
    created,
    offsets,
    state,
    T,
    return_messages,
    counters=None,
    drop_code=None,
) -> list[tuple[NetworkStats, list[Message] | None]]:
    """Per-replica statistics and messages of a finished pooled run (the
    :func:`_pooled_state` arrays), computed exactly as the reference does;
    ``counters`` / ``drop_code`` are the scenario kernel's."""
    _, dst, hops, arrival, _, _, last_time, _, _, max_queue, tx_count = state
    results: list[tuple[NetworkStats, list[Message] | None]] = []
    for r in range(len(offsets) - 1):
        lo, hi = int(offsets[r]), int(offsets[r + 1])
        arrived = arrival[lo:hi]
        delivered_mask = ~np.isnan(arrived)
        num_delivered = int(delivered_mask.sum())
        latencies = (arrived - created[lo:hi])[delivered_mask]
        hop_counts = hops[lo:hi][delivered_mask].astype(float)
        scenario_counts = {}
        if counters is not None:
            retransmits, fault, ttl, buffer, rerouted = counters[5 * r : 5 * r + 5].tolist()
            scenario_counts = dict(
                dropped_buffer=buffer,
                dropped_fault=fault,
                dropped_hops=ttl,
                retransmits=retransmits,
                rerouted_hops=rerouted,
            )
        stats = NetworkStats(
            delivered=num_delivered,
            undelivered=(hi - lo) - num_delivered,
            makespan=float(last_time[r]),
            mean_latency=float(latencies.mean()) if latencies.size else 0.0,
            max_latency=float(latencies.max()) if latencies.size else 0.0,
            mean_hops=float(hop_counts.mean()) if hop_counts.size else 0.0,
            max_link_queue=int(max_queue[r]),
            total_link_busy_time=_sequential_sum(int(tx_count[r]), T),
            **scenario_counts,
        )
        messages: list[Message] | None = None
        if return_messages:
            columns = zip(
                range(hi - lo),
                src[lo:hi].tolist(),
                dst[lo:hi].tolist(),
                created[lo:hi].tolist(),
                arrival[lo:hi].tolist(),
                hops[lo:hi].tolist(),
            )
            messages = [
                Message(ident, source, destination, creation, arrived_at, hop)
                for ident, source, destination, creation, arrived_at, hop in columns
            ]
            if drop_code is not None:
                for message, code in zip(messages, drop_code[lo:hi].tolist()):
                    message.drop_reason = _DROP_REASONS[code]
        results.append((stats, messages))
    return results


class BatchedNetworkSimulator:
    """Vectorised event-batched re-implementation of :class:`NetworkSimulator`.

    Produces bit-identical :class:`NetworkStats` and per-message records (see
    the module docstring for the exact contract) while resolving every batch
    of simultaneous events with whole-array numpy operations.  The win grows
    with batch size: saturation workloads (every message injected at time 0)
    and the lattice of timestamps produced by constant link timings keep
    batches in the hundreds, which is where the ~10x-and-up speedups over the
    callback loop come from.  Sparse workloads whose timestamps never collide
    degrade gracefully to small batches.

    Parameters are identical to :class:`NetworkSimulator`, plus ``kernels``:
    a kernel-backend request (see :mod:`repro.kernels`) — ``None`` resolves
    the ``REPRO_KERNELS`` environment override, ``"numpy"`` pins the
    original vectorised path.  All backends are bit-identical.  On a
    compiled backend, a run without ``trace`` whose router the kernels can
    consult (a ``shift_spec()``, or a :class:`~repro.routing.routers.
    DenseTableRouter`, whose columns for the run's destinations the kernel
    reads) is one kernel call; every other run takes the numpy path.
    :attr:`kernel_backend` names the backend that runs: ``"numpy"`` for a
    router the kernels cannot consult (a wrapper).
    """

    def __init__(
        self,
        graph: BaseDigraph,
        link: LinkModel | None = None,
        *,
        router: Router | str | None = None,
        scenario=None,
        kernels: str | None = None,
    ):
        if scenario is not None and link is not None:
            raise ValueError(
                "pass link= or scenario= (the scenario carries its link model), "
                "not both"
            )
        self.graph = graph
        self.scenario = scenario
        self.link = scenario.link if scenario is not None else (link or LinkModel())
        self.router = resolve_router(graph, router=router)
        self._reroute = _reroute_table(graph, scenario, self.router)
        self._groups = _LinkGroups(graph)
        resolved = _kernels.resolve_backend(kernels)
        if self.router.shift_spec() is None and not isinstance(
            self.router, DenseTableRouter
        ):
            # A router only python calls can ask (a wrapper) runs the numpy
            # path on every backend: report what actually runs.
            resolved = "numpy"
        self.kernel_backend = resolved
        self._kernels = _kernels.get_kernels(resolved)

    # ------------------------------------------------------------------ run
    def run(
        self,
        traffic,
        *,
        until: float | None = None,
        max_events: int | None = None,
        trace: list | None = None,
    ) -> tuple[NetworkStats, list[Message]]:
        """Simulate one workload; same signature and semantics as the reference.

        ``trace``, when given a list, receives one
        ``(link_ids, start_times, message_indices)`` triple per batch (per
        transmission in a degrading scenario) in chronological order — the
        property tests use it to check per-link FIFO service.
        """
        ((stats, messages),) = self.run_many(
            [traffic], until=until, max_events=max_events, trace=trace
        )
        return stats, messages

    def run_many(
        self,
        traffics,
        *,
        until: float | None = None,
        max_events: int | None = None,
        trace: list | None = None,
        return_messages: bool = True,
    ) -> list[tuple[NetworkStats, list[Message] | None]]:
        """Simulate many independent workloads in one pooled pass.

        Each workload gets its own replica of the link-state arrays (no
        cross-workload contention) while sharing the router, the group
        structure and — crucially — the per-step batching: simultaneous
        events of *all* replicas resolve in one vector operation, so running
        ``R`` seeds costs far less than ``R`` separate runs.  Per-replica
        results are bit-identical to what :meth:`run` returns for that
        workload alone.  ``max_events`` counts the events of the whole pass:
        in a healthy run it caps the total across replicas (a global safety
        valve); with a degrading ``scenario``, which runs one event at a
        time (see the module docstring's degraded-mode contract),
        ``max_events`` and ``trace`` apply to a single workload only, and
        either one with more than one workload raises ``ValueError`` on
        every backend.
        """
        if self.scenario is not None and self.scenario.needs_event_exact():
            return self._run_many_scenario(
                traffics,
                until=until,
                max_events=max_events,
                trace=trace,
                return_messages=return_messages,
            )
        groups = self._groups
        n = self.graph.num_vertices
        m = groups.num_links
        num_groups = groups.num_groups
        T = self.link.transmission_time
        L = self.link.latency
        R = len(traffics)

        src, created, offsets, state = _pooled_state(traffics, n, m)
        (loc, dst, hops, arrival, prev_link, rep, last_time,
         busy_until, queue_len, max_queue, tx_count) = state
        N = int(offsets[-1])
        router = self.router
        processed = 0

        if self._kernels is not None and trace is None:
            queue = ()  # compiled path: the event heap lives in the kernel
            self._run_kernel(
                self._kernels.run_rounds,
                (np.arange(N, dtype=np.int64), np.ascontiguousarray(created)),
                state,
                until, max_events,
            )
        else:
            queue = BatchEventQueue(N)
            queue.schedule(np.arange(N, dtype=np.int64), created)

        while len(queue):
            t = queue.peek_time()
            if until is not None and t > until:
                break
            limit = None
            if max_events is not None:
                limit = max_events - processed
                if limit <= 0:
                    break
            t, slots = queue.pop_batch(limit=limit)
            processed += len(slots)

            if len(slots) <= _SCALAR_BATCH_CUTOFF:
                # Scalar fast path: sparse workloads (few timestamp
                # collisions) degrade to tiny batches, where the vector
                # machinery costs more than it saves — run the literal
                # reference algorithm per event (identical float ops).
                for i in slots:
                    r = int(rep[i]) if R > 1 else 0
                    last_time[r] = t
                    in_link = int(prev_link[i])
                    if in_link >= 0:
                        hops[i] += 1
                        queue_len[in_link] -= 1
                    node = int(loc[i])
                    target = int(dst[i])
                    if node == target:
                        arrival[i] = t
                        continue
                    next_node = router.next_hop(node, target)
                    if next_node < 0:
                        continue  # unreachable: drop
                    local_links = groups.links(node, next_node)
                    if local_links is None:
                        raise _not_an_arc(node, next_node)
                    base = r * m
                    if len(local_links) == 1:
                        link = base + local_links[0]
                    else:
                        link = min(
                            (base + l for l in local_links),
                            key=lambda l: (float(busy_until[l]), l),
                        )
                    start = max(t, float(busy_until[link]))
                    finish = start + T
                    busy_until[link] = finish
                    depth = int(queue_len[link]) + 1
                    queue_len[link] = depth
                    if depth > max_queue[r]:
                        max_queue[r] = depth
                    tx_count[r] += 1
                    prev_link[i] = link
                    loc[i] = next_node
                    queue.schedule_one(i, finish + L)
                    if trace is not None:
                        trace.append(
                            (
                                np.array([link], dtype=np.int64),
                                np.array([start]),
                                np.array([i], dtype=np.int64),
                            )
                        )
                continue

            idx = np.asarray(slots, dtype=np.int64)
            if R == 1:
                last_time[0] = t
            else:
                last_time[rep[idx]] = t
            batch_pos = np.arange(idx.size, dtype=np.int64)

            # Deliver bookkeeping: every event with a previous link is the
            # arrival end of a transmission — free its FIFO slot, count a hop.
            links_in = prev_link[idx]
            has_prev = links_in >= 0
            if has_prev.all():  # steady state: pure deliver batches
                hops[idx] += 1
                dec_links = links_in
                dec_pos = batch_pos
            else:
                if has_prev.any():
                    hops[idx[has_prev]] += 1
                dec_links = links_in[has_prev]
                dec_pos = batch_pos[has_prev]

            dests = dst[idx]
            nodes = loc[idx]
            at_dest = nodes == dests
            if at_dest.any():
                arrival[idx[at_dest]] = t

            forwarding = ~at_dest
            tails = nodes[forwarding]
            nxt = router.next_hops(tails, dests[forwarding])
            reachable = nxt >= 0  # unreachable: drop (counted as undelivered)
            if reachable.all():  # strongly connected topologies: no drops
                movers = idx[forwarding]
                mover_pos = batch_pos[forwarding]
                mover_next = nxt
            else:
                movers = idx[forwarding][reachable]
                mover_pos = batch_pos[forwarding][reachable]
                mover_next = nxt[reachable]
                tails = tails[reachable]

            inc_links = np.zeros(0, dtype=np.int64)
            if movers.size:
                gid = groups.group_of(tails, mover_next)
                if R > 1:
                    gid = rep[movers] * num_groups + gid
                order = np.argsort(gid, kind="stable")  # keeps seq order per group
                gid_sorted = gid[order]
                firsts = np.concatenate(
                    ([0], np.flatnonzero(np.diff(gid_sorted)) + 1)
                )
                group_counts = np.diff(np.concatenate((firsts, [gid_sorted.size])))
                batch_groups = gid_sorted[firsts]
                local_group = batch_groups % num_groups
                replica = batch_groups // num_groups
                width = groups.group_size[local_group]

                starts_sorted = np.empty(movers.size)
                links_sorted = np.empty(movers.size, dtype=np.int64)

                # (a) single-link groups — the FIFO chain ``max(t, free), +T,
                # +T, ...`` of every group advances one sequential addition
                # per round, all groups in one vector op per round (so the
                # float accumulation order matches the reference exactly).
                single = width == 1
                if single.any():
                    link = replica[single] * m + groups.first_link[local_group[single]]
                    sizes = group_counts[single]
                    base = firsts[single]
                    offs = np.cumsum(sizes) - sizes
                    fill = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(
                        offs, sizes
                    ) + np.repeat(base, sizes)
                    links_sorted[fill] = np.repeat(link, sizes)
                    cur = np.maximum(t, busy_until[link])
                    # very deep chains (saturated hot links) in one cumsum each
                    deep = sizes > 512
                    for g in np.flatnonzero(deep):
                        size = int(sizes[g])
                        chain = np.full(size, T)
                        chain[0] = cur[g]
                        chain = np.cumsum(chain)
                        starts_sorted[int(base[g]) : int(base[g]) + size] = chain
                        cur[g] = float(chain[-1]) + T
                    shallow = np.flatnonzero(~deep)
                    round_no = 0
                    while shallow.size:
                        starts_sorted[base[shallow] + round_no] = cur[shallow]
                        cur[shallow] = cur[shallow] + T
                        round_no += 1
                        shallow = shallow[sizes[shallow] > round_no]
                    busy_until[link] = cur
                # (c) parallel links — the reference greedy picks, per message,
                # the link minimising ``(raw free time, link id)`` (the raw
                # time, which may predate the batch, not the clamped start).
                # That greedy is exactly the k-way merge of the per-link key
                # chains ``raw, max(t, raw)+T, +T, ...``, so merge the chains
                # instead of iterating over messages.
                for g in np.flatnonzero(width > 1):
                    lg = int(local_group[g])
                    local_links = groups.flat_links[
                        groups.group_ptr[lg] : groups.group_ptr[lg + 1]
                    ]
                    link = int(replica[g]) * m + local_links
                    lo = int(firsts[g])
                    size = int(group_counts[g])
                    raw = busy_until[link]
                    keys = np.empty((link.size, size))
                    keys[:, 0] = raw
                    if size > 1:
                        chain = np.full((link.size, size - 1), T)
                        chain[:, 0] = np.maximum(t, raw) + T
                        keys[:, 1:] = np.cumsum(chain, axis=1)
                    pool_links = np.repeat(link, size)
                    pool_keys = keys.ravel()
                    take = np.lexsort((pool_links, pool_keys))[:size]
                    pool_starts = np.maximum(t, pool_keys[take])
                    starts_sorted[lo : lo + size] = pool_starts
                    links_sorted[lo : lo + size] = pool_links[take]
                    np.maximum.at(
                        busy_until, pool_links[take], pool_starts + T
                    )

                starts = np.empty(movers.size)
                starts[order] = starts_sorted
                chosen = np.empty(movers.size, dtype=np.int64)
                chosen[order] = links_sorted

                finish = starts + T
                queue.schedule(movers, finish + L)
                prev_link[movers] = chosen
                loc[movers] = mover_next
                if R == 1:
                    tx_count[0] += movers.size
                else:
                    tx_count += np.bincount(rep[movers], minlength=R)
                inc_links = chosen
                if trace is not None:
                    trace.append((chosen.copy(), starts.copy(), movers.copy()))

            # FIFO depth accounting: per-link signed deltas in event order;
            # segmented prefix maxima reproduce the reference's running max.
            if dec_links.size or inc_links.size:
                deltas = np.concatenate(
                    (
                        np.full(dec_links.size, -1, dtype=np.int64),
                        np.ones(inc_links.size, dtype=np.int64),
                    )
                )
                delta_links = np.concatenate((dec_links, inc_links))
                delta_pos = np.concatenate((dec_pos, mover_pos))
                order = np.lexsort((delta_pos, delta_links))
                link_run = delta_links[order]
                delta_run = deltas[order]
                seg = np.concatenate(([0], np.flatnonzero(np.diff(link_run)) + 1))
                seg_sizes = np.diff(np.concatenate((seg, [link_run.size])))
                cum = np.cumsum(delta_run)
                base = np.concatenate(([0], cum[seg[1:] - 1]))
                seg_links = link_run[seg]
                running = (
                    cum
                    - np.repeat(base, seg_sizes)
                    + np.repeat(queue_len[seg_links], seg_sizes)
                )
                seg_max = np.maximum.reduceat(running, seg)
                queue_len[seg_links] = running[
                    np.concatenate((seg[1:], [link_run.size])) - 1
                ]
                if R == 1:
                    peak = int(seg_max.max())
                    if peak > max_queue[0]:
                        max_queue[0] = peak
                else:
                    np.maximum.at(max_queue, seg_links // m, seg_max)

        return _replica_results(src, created, offsets, state, T, return_messages)

    # -------------------------------------------------------- kernel rounds
    def _run_kernel(self, kernel, events, state, until, max_events, *scenario):
        """One call of the compiled event loop ``kernel`` (``run_rounds``
        or ``run_scenario``) over ``events = (slots, times)`` and the
        pooled per-message / per-replica arrays ``state`` (its second
        array holds every destination), mutated in place.  It routes by
        the router's shift spec, or by the table router's columns for
        those destinations.  A hop that is not an arc raises
        ``ValueError``.
        """
        spec = self.router.shift_spec()
        table = _NO_COLUMNS
        if spec is None:
            col, slot, _ = self.router.columns(state[1])
            table, spec = (self.router.successors, slot, col), _UNUSED_SHIFT
        groups = self._groups
        status, meta = kernel(
            events,
            (*state, groups.group_keys, groups.group_ptr, groups.flat_links,
             groups.vertex_groups),
            float(self.link.transmission_time),
            float(self.link.latency),
            until,
            max_events,
            spec,
            table,
            *scenario,
        )
        _raise_kernel_status(status, meta)

    # ------------------------------------------------------------- scenario
    def _run_many_scenario(
        self,
        traffics,
        *,
        until: float | None = None,
        max_events: int | None = None,
        trace: list | None = None,
        return_messages: bool = True,
    ) -> list[tuple[NetworkStats, list[Message] | None]]:
        """Pooled scenario runs: one event at a time, in sequence order.

        On a compiled backend, with a router the kernel can consult
        (see :attr:`kernel_backend`) and no ``trace``, the whole pass is one
        ``run_scenario`` kernel call.  It keeps the replicated link arrays
        of :meth:`run_many`, but resolves each event with the literal
        algorithm of :func:`_scenario_loop` — identical float ops — because
        finite buffers, fault flips and reroute decisions are
        order-dependent within a batch.  Fault events occupy the queue
        slots past the message range (``N .. N+F-1``) and are scheduled
        *first*, so at equal timestamps they outrank every message event,
        exactly like the reference heap's sequence numbers.  Fault state is
        global: one timeline drives all replicas, which is what makes a
        stacked scenario run equal R solo runs of the same scenario.

        Every other run is :func:`_scenario_loop` once per workload, over
        this engine's link groups.  ``max_events`` and ``trace`` count
        the events of one workload, so either one with several workloads
        raises ``ValueError``.
        """
        if len(traffics) > 1 and (max_events is not None or trace is not None):
            raise ValueError(
                "max_events= and trace= apply to a single workload in a "
                f"degrading scenario run, got {len(traffics)} workloads"
            )
        link = self.link
        groups = self._groups
        scenario_state = _ScenarioState(
            self.scenario, self.router, self._reroute, groups
        )
        src, created, offsets, state = _pooled_state(
            traffics, groups.num_vertices, groups.num_links
        )
        dst = state[1]
        if self._kernels is None or trace is not None:
            results = []
            for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
                messages = _new_messages(src[lo:hi], dst[lo:hi], created[lo:hi])
                stats, messages = _scenario_loop(
                    scenario_state, link, messages,
                    until=until, max_events=max_events, trace=trace,
                )
                results.append((stats, messages if return_messages else None))
            return results

        N = int(offsets[-1])
        fault_events = scenario_state.fault_events
        fault_times = np.array([event.time for event in fault_events], dtype=float)
        capacity = getattr(link, "capacity", None)
        ttl = scenario_state.ttl
        retries = np.zeros(N, dtype=np.int64)
        drop_code = np.zeros(N, dtype=np.int8)  # index into _DROP_REASONS
        # per replica: retransmits, drops by code (fault, hops, buffer),
        # rerouted hops — the kernel's flat layout
        counters = np.zeros(5 * len(traffics), dtype=np.int64)
        distance, dist_col = _NO_HOPS, _NO_TABLE
        if scenario_state.table is not None:
            dist_col, _, distance = scenario_state.table.columns(dst)
        self._run_kernel(
            self._kernels.run_scenario,
            # faults first: lower sequence at equal timestamps
            (
                np.concatenate((np.arange(N, N + len(fault_events)), np.arange(N))),
                np.concatenate((fault_times, created)),
            ),
            state,
            until,
            max_events,
            (
                N,
                np.array([_FAULT_CODES[e.kind] for e in fault_events], dtype=np.int64),
                np.array([e.target for e in fault_events], dtype=np.int64),
                scenario_state.link_down.view(np.uint8),
                scenario_state.node_down.view(np.uint8),
                distance,
                dist_col,
                -1 if ttl is None else ttl,
                -1 if capacity is None else capacity,
                int(getattr(link, "on_full", "drop") == "retry"),
                float(getattr(link, "retry_delay", 1.0)),
                int(getattr(link, "max_retries", 0)),
                retries,
                drop_code,
                counters,
            ),
        )
        return _replica_results(
            src, created, offsets, state, link.transmission_time, return_messages,
            counters, drop_code,
        )
