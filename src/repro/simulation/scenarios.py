"""Composable simulation scenarios: arrivals × buffers × faults × rerouting.

The paper's headline structural claim is that de Bruijn/Kautz-style
topologies give ``d`` arc-disjoint paths and therefore graceful degradation
under link/node loss (Section 5 context; PAPER.md).  Exercising that claim
needs more than the healthy, infinite-buffer base model — it needs a
*scenario space*.  This module decomposes a simulation run into four
pluggable layers, each an explicit, picklable, deterministic value:

* **ArrivalProcess** — who sends to whom, when.  :class:`UniformArrivals`,
  :class:`HotspotArrivals` (the adversarial single-target pattern),
  :class:`PermutationArrivals`, :class:`BurstyArrivals` (on/off trains) and
  :class:`DiurnalArrivals` (sinusoidally modulated Poisson, thinned).  The
  first three draw their pairs through the generators of
  :mod:`repro.simulation.workloads`, and
  :func:`~repro.simulation.workloads.make_workload` draws every named
  workload through these processes, so the two front-ends are one RNG
  stream and one set of traffic digests (and chunk-store ids).
* **BufferedLinkModel** — finite per-link queues with drop/retransmit
  accounting (:class:`repro.simulation.network.BufferedLinkModel`; plain
  :class:`~repro.simulation.network.LinkModel` means infinite buffers).
* **FaultPlan** — a deterministic timeline of link/node down/up events,
  injected into both engines' event queues (fail-stop: in-flight
  transmissions complete, new acquisitions see the flipped state).
* **ReroutePolicy** — ``"none"`` (a severed primary hop drops the message,
  reason ``"fault"``) or ``"arc-disjoint"`` (greedy deflection over the
  healthy hop counts of a :class:`repro.routing.routers.DenseTableRouter`,
  walking one of the alternate arc-disjoint paths the topologies
  guarantee).

A :class:`Scenario` composes the four and threads through both engines
(``NetworkSimulator(graph, scenario=...)`` /
``BatchedNetworkSimulator(graph, scenario=...).run_many``), the sharded
driver (its :meth:`Scenario.digest` joins the chunk fingerprint), the
``repro scenarios`` CLI subcommand and the ``BENCH_scenarios.json``
throughput–latency Pareto benchmark (:func:`run_scenario_sweep`).

Determinism and seeding contract: every layer is a frozen dataclass whose
behaviour is a pure function of its fields (plus, for arrivals, the seed
passed to :meth:`Scenario.traffic`); :meth:`Scenario.digest` hashes the
sorted-keys JSON of the whole composition, so two hosts agree on a
scenario's identity exactly when they would simulate the same thing.
"""

from __future__ import annotations

import hashlib
import json
import math
import time as _time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from repro.graphs.digraph import BaseDigraph
from repro.simulation.network import (
    BatchedNetworkSimulator,
    BufferedLinkModel,
    LinkModel,
    NetworkStats,
    Traffic,
    validate_traffic,
)
from repro.simulation.workloads import (
    hotspot_pairs,
    permutation_pairs,
    poisson_arrival_times,
    uniform_random_pairs,
)

__all__ = [
    "UniformArrivals",
    "HotspotArrivals",
    "PermutationArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "ARRIVAL_KINDS",
    "make_arrivals",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "REROUTE_KINDS",
    "Scenario",
    "ScenarioPoint",
    "ScenarioSweep",
    "run_scenario_sweep",
]


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------
def _overlay_rate(pairs: Traffic, rate: float | None, generator) -> Traffic:
    """``pairs`` injected at the times of a Poisson process of ``rate``,
    drawn after the pairs (``rate=None``: everything at time 0)."""
    if rate is None:
        return pairs
    return pairs.with_times(
        poisson_arrival_times(len(pairs), rate, generator)
    )


def _check_rate(rate: float | None) -> None:
    if rate is not None and not (np.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and positive, got {rate!r}")


@dataclass(frozen=True)
class UniformArrivals:
    """Uniform random pairs; ``rate=None`` injects everything at time 0."""

    kind: ClassVar[str] = "uniform"
    num_messages: int = 100
    rate: float | None = None

    def __post_init__(self):
        if self.num_messages < 0:
            raise ValueError("num_messages must be non-negative")
        _check_rate(self.rate)

    def traffic(self, num_nodes: int, rng=None) -> Traffic:
        generator = _as_rng(rng)
        pairs = uniform_random_pairs(num_nodes, self.num_messages, generator)
        return _overlay_rate(pairs, self.rate, generator)

    def with_rate(self, rate: float | None) -> "UniformArrivals":
        return replace(self, rate=rate)

    def to_json(self) -> dict:
        return {"kind": self.kind, "num_messages": self.num_messages, "rate": self.rate}


@dataclass(frozen=True)
class HotspotArrivals:
    """Adversarial hotspot: a fraction of messages gang up on one node."""

    kind: ClassVar[str] = "hotspot"
    num_messages: int = 100
    hotspot: int = 0
    hotspot_fraction: float = 0.5
    rate: float | None = None

    def __post_init__(self):
        if self.num_messages < 0:
            raise ValueError("num_messages must be non-negative")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")
        if self.hotspot < 0:
            raise ValueError("hotspot node must be non-negative")
        _check_rate(self.rate)

    def traffic(self, num_nodes: int, rng=None) -> Traffic:
        generator = _as_rng(rng)
        pairs = hotspot_pairs(
            num_nodes,
            self.num_messages,
            self.hotspot,
            self.hotspot_fraction,
            generator,
        )
        return _overlay_rate(pairs, self.rate, generator)

    def with_rate(self, rate: float | None) -> "HotspotArrivals":
        return replace(self, rate=rate)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "num_messages": self.num_messages,
            "hotspot": self.hotspot,
            "hotspot_fraction": self.hotspot_fraction,
            "rate": self.rate,
        }


@dataclass(frozen=True)
class PermutationArrivals:
    """One message per node along a random derangement-ish permutation."""

    kind: ClassVar[str] = "permutation"
    rate: float | None = None

    def __post_init__(self):
        _check_rate(self.rate)

    def traffic(self, num_nodes: int, rng=None) -> Traffic:
        generator = _as_rng(rng)
        pairs = permutation_pairs(num_nodes, generator)
        return _overlay_rate(pairs, self.rate, generator)

    def with_rate(self, rate: float | None) -> "PermutationArrivals":
        return replace(self, rate=rate)

    def to_json(self) -> dict:
        return {"kind": self.kind, "rate": self.rate}


@dataclass(frozen=True)
class BurstyArrivals:
    """On/off bursts: trains of back-to-back messages separated by silences.

    Messages arrive in bursts of ``burst_size``; within a burst the gaps are
    exponential with rate ``burst_rate``, and consecutive bursts are
    separated by an exponential silence of mean ``gap``.  Endpoint pairs are
    uniform random.  The long-run offered rate is roughly
    ``burst_size / (gap + burst_size / burst_rate)``.
    """

    kind: ClassVar[str] = "bursty"
    num_messages: int = 100
    burst_size: int = 8
    burst_rate: float = 8.0
    gap: float = 4.0

    def __post_init__(self):
        if self.num_messages < 0:
            raise ValueError("num_messages must be non-negative")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if not (np.isfinite(self.burst_rate) and self.burst_rate > 0):
            raise ValueError("burst_rate must be finite and positive")
        if not (np.isfinite(self.gap) and self.gap >= 0):
            raise ValueError("gap must be finite and non-negative")

    def traffic(self, num_nodes: int, rng=None) -> Traffic:
        generator = _as_rng(rng)
        pairs = uniform_random_pairs(num_nodes, self.num_messages, generator)
        times: list[float] = []
        clock = 0.0
        emitted = 0
        while emitted < self.num_messages:
            clock += float(generator.exponential(self.gap)) if self.gap else 0.0
            size = min(self.burst_size, self.num_messages - emitted)
            for gap in generator.exponential(1.0 / self.burst_rate, size=size):
                clock += float(gap)
                times.append(clock)
            emitted += size
        return pairs.with_times(times)

    def with_rate(self, rate: float | None) -> "BurstyArrivals":
        """Scale the within-burst rate (the load knob of the Pareto sweep)."""
        if rate is None:
            return self
        _check_rate(rate)
        return replace(self, burst_rate=rate)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "num_messages": self.num_messages,
            "burst_size": self.burst_size,
            "burst_rate": self.burst_rate,
            "gap": self.gap,
        }


@dataclass(frozen=True)
class DiurnalArrivals:
    """Sinusoidally modulated Poisson arrivals (thinning construction).

    The instantaneous rate swings between ``trough_rate`` and ``peak_rate``
    over one ``period``; candidate arrivals are drawn at the peak rate and
    thinned with probability ``rate(t) / peak_rate`` — the standard exact
    construction for a non-homogeneous Poisson process.  Endpoint pairs are
    uniform random.
    """

    kind: ClassVar[str] = "diurnal"
    num_messages: int = 100
    peak_rate: float = 2.0
    trough_rate: float = 0.2
    period: float = 50.0

    def __post_init__(self):
        if self.num_messages < 0:
            raise ValueError("num_messages must be non-negative")
        if not (np.isfinite(self.peak_rate) and self.peak_rate > 0):
            raise ValueError("peak_rate must be finite and positive")
        if not (np.isfinite(self.trough_rate) and self.trough_rate > 0):
            raise ValueError("trough_rate must be finite and positive")
        if self.trough_rate > self.peak_rate:
            raise ValueError("trough_rate must not exceed peak_rate")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValueError("period must be finite and positive")

    def traffic(self, num_nodes: int, rng=None) -> Traffic:
        generator = _as_rng(rng)
        pairs = uniform_random_pairs(num_nodes, self.num_messages, generator)
        times: list[float] = []
        clock = 0.0
        swing = self.peak_rate - self.trough_rate
        while len(times) < self.num_messages:
            clock += float(generator.exponential(1.0 / self.peak_rate))
            phase = math.sin(2.0 * math.pi * clock / self.period)
            instantaneous = self.trough_rate + swing * 0.5 * (1.0 + phase)
            if generator.random() * self.peak_rate <= instantaneous:
                times.append(clock)
        return pairs.with_times(times)

    def with_rate(self, rate: float | None) -> "DiurnalArrivals":
        """Scale the peak rate, keeping the trough/peak ratio."""
        if rate is None:
            return self
        _check_rate(rate)
        ratio = self.trough_rate / self.peak_rate
        return replace(self, peak_rate=rate, trough_rate=rate * ratio)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "num_messages": self.num_messages,
            "peak_rate": self.peak_rate,
            "trough_rate": self.trough_rate,
            "period": self.period,
        }


#: Arrival-process registry: kind name -> class (CLI and JSON round-trips).
ARRIVAL_KINDS = {
    cls.kind: cls
    for cls in (
        UniformArrivals,
        HotspotArrivals,
        PermutationArrivals,
        BurstyArrivals,
        DiurnalArrivals,
    )
}


def make_arrivals(kind: str, **params):
    """Build an arrival process from its kind name and parameters."""
    try:
        cls = ARRIVAL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown arrival kind {kind!r} (expected one of {sorted(ARRIVAL_KINDS)})"
        ) from None
    return cls(**params)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
FAULT_KINDS = ("link_down", "link_up", "node_down", "node_up")


@dataclass(frozen=True)
class FaultEvent:
    """One fail-stop state flip: a link or node goes down (or comes back).

    ``target`` is a link id — the arc's index in ``graph.arcs()``
    enumeration order, the numbering both engines use — for the link kinds,
    and a vertex id for the node kinds.  Range checking against a concrete
    topology happens when the plan enters an engine.
    """

    time: float
    kind: str
    target: int

    def __post_init__(self):
        if not (np.isfinite(self.time) and self.time >= 0):
            raise ValueError(
                f"fault time must be finite and non-negative, got {self.time!r}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.target < 0:
            raise ValueError(f"fault target must be non-negative, got {self.target!r}")

    def to_json(self) -> dict:
        return {"time": self.time, "kind": self.kind, "target": self.target}


def _link_ids_between(graph: BaseDigraph, tail: int, head: int) -> list[int]:
    """All parallel link ids of the ``(tail, head)`` arcs (engine numbering)."""
    ids = [
        index for index, (u, v) in enumerate(graph.arcs()) if (u, v) == (tail, head)
    ]
    if not ids:
        raise ValueError(f"no arc {tail} -> {head} in {graph.name or 'graph'}")
    return ids


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, time-sorted timeline of :class:`FaultEvent` flips.

    Events are normalised to chronological order (stable, so equal-time
    events keep their given relative order — that order is also the order
    both engines apply them in).  An empty plan is the healthy network.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        ordered = tuple(
            sorted(self.events, key=lambda event: event.time)
        )
        object.__setattr__(self, "events", ordered)

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls(())

    @classmethod
    def cut_links(
        cls,
        graph: BaseDigraph,
        tail: int,
        head: int,
        *,
        at: float,
        heal_at: float | None = None,
    ) -> "FaultPlan":
        """Sever every parallel link ``tail -> head`` at ``at`` (heal later)."""
        events = [
            FaultEvent(at, "link_down", link_id)
            for link_id in _link_ids_between(graph, tail, head)
        ]
        if heal_at is not None:
            events += [
                FaultEvent(heal_at, "link_up", event.target) for event in events
            ]
        return cls(tuple(events))

    @classmethod
    def node_outage(
        cls, node: int, *, at: float, heal_at: float | None = None
    ) -> "FaultPlan":
        events = [FaultEvent(at, "node_down", node)]
        if heal_at is not None:
            events.append(FaultEvent(heal_at, "node_up", node))
        return cls(tuple(events))

    @classmethod
    def random_link_failures(
        cls,
        graph: BaseDigraph,
        count: int,
        *,
        at: float = 0.0,
        heal_after: float | None = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """``count`` distinct links chosen by ``seed``, all down at ``at``."""
        m = graph.num_arcs
        if not 0 <= count <= m:
            raise ValueError(f"count must be in [0, {m}], got {count}")
        chosen = np.random.default_rng(seed).choice(m, size=count, replace=False)
        events = [FaultEvent(at, "link_down", int(link)) for link in sorted(chosen)]
        if heal_after is not None:
            events += [
                FaultEvent(at + heal_after, "link_up", event.target)
                for event in events
            ]
        return cls(tuple(events))

    @classmethod
    def all_links_down(cls, graph: BaseDigraph, *, at: float = 0.0) -> "FaultPlan":
        """The degenerate blackout: every link down at ``at`` (nothing hangs —
        every message drops with reason ``"fault"`` at its next hop)."""
        return cls(
            tuple(FaultEvent(at, "link_down", link) for link in range(graph.num_arcs))
        )

    def to_json(self) -> list[dict]:
        return [event.to_json() for event in self.events]


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------
#: Reroute policies: drop on a severed primary hop, or deflect onto the
#: alternate arc-disjoint paths (greedy over the healthy distance table).
REROUTE_KINDS = ("none", "arc-disjoint")


@dataclass(frozen=True)
class Scenario:
    """The composition of the four scenario layers; the unit the engines run.

    Attributes
    ----------
    arrivals:
        An arrival process (anything with ``traffic(num_nodes, rng)``,
        ``with_rate(rate)`` and ``to_json()`` — see :data:`ARRIVAL_KINDS`).
    link:
        The link model; a :class:`~repro.simulation.network.
        BufferedLinkModel` turns on finite buffers and backpressure.
    faults:
        The fault timeline (default: healthy).
    reroute:
        One of :data:`REROUTE_KINDS`.
    max_hops:
        Per-message hop TTL.  ``None`` means unlimited — except that an
        active reroute policy defaults to ``4 * num_nodes`` (deflection
        routing can cycle; the TTL turns a potential livelock into a
        ``"hops"`` drop surfaced in :class:`~repro.simulation.network.
        NetworkStats`).
    """

    arrivals: object = field(default_factory=UniformArrivals)
    link: LinkModel = field(default_factory=LinkModel)
    faults: FaultPlan = field(default_factory=FaultPlan)
    reroute: str = "none"
    max_hops: int | None = None

    def __post_init__(self):
        for method in ("traffic", "with_rate", "to_json"):
            if not callable(getattr(self.arrivals, method, None)):
                raise ValueError(
                    f"arrivals must implement {method}(); got {self.arrivals!r}"
                )
        if not isinstance(self.link, LinkModel):
            raise ValueError(f"link must be a LinkModel, got {self.link!r}")
        if not isinstance(self.faults, FaultPlan):
            raise ValueError(f"faults must be a FaultPlan, got {self.faults!r}")
        if self.reroute not in REROUTE_KINDS:
            raise ValueError(
                f"reroute must be one of {REROUTE_KINDS}, got {self.reroute!r}"
            )
        if self.max_hops is not None and self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1 or None, got {self.max_hops!r}")

    # ------------------------------------------------------------- engines
    def needs_event_exact(self) -> bool:
        """Does this scenario degrade the network?

        True switches the batched engine to its per-event scenario paths
        (the ``run_scenario`` kernel or the Python loop); False
        (arrival-only scenarios) keeps its healthy paths, the full vector
        path included.  The reference runs its one loop either way.
        """
        return bool(
            self.faults
            or self.reroute != "none"
            or self.max_hops is not None
            or getattr(self.link, "capacity", None) is not None
        )

    def effective_max_hops(self, num_nodes: int) -> int | None:
        if self.max_hops is not None:
            return self.max_hops
        if self.reroute != "none":
            return 4 * num_nodes
        return None

    # -------------------------------------------------------------- traffic
    def traffic(self, num_nodes: int, rng=None) -> Traffic:
        """One validated traffic drawn from the arrival process."""
        return validate_traffic(self.arrivals.traffic(num_nodes, rng), num_nodes)

    def with_rate(self, rate: float | None) -> "Scenario":
        """The scenario with its arrival process's load knob set to ``rate``."""
        return replace(self, arrivals=self.arrivals.with_rate(rate))

    # ------------------------------------------------------------- identity
    def to_json(self) -> dict:
        link = {
            "latency": self.link.latency,
            "transmission_time": self.link.transmission_time,
        }
        if isinstance(self.link, BufferedLinkModel):
            link.update(
                capacity=self.link.capacity,
                on_full=self.link.on_full,
                retry_delay=self.link.retry_delay,
                max_retries=self.link.max_retries,
            )
        return {
            "arrivals": self.arrivals.to_json(),
            "link": link,
            "faults": self.faults.to_json(),
            "reroute": self.reroute,
            "max_hops": self.max_hops,
        }

    def digest(self) -> str:
        """Stable identity of the composition (joins chunk fingerprints)."""
        payload = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def describe(self) -> str:
        parts = [self.arrivals.to_json().get("kind", "custom")]
        capacity = getattr(self.link, "capacity", None)
        if capacity is not None:
            parts.append(f"buffers={capacity}/{getattr(self.link, 'on_full', '?')}")
        if self.faults:
            parts.append(f"faults={len(self.faults.events)}")
        if self.reroute != "none":
            parts.append(f"reroute={self.reroute}")
        if self.max_hops is not None:
            parts.append(f"ttl={self.max_hops}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Throughput–latency Pareto sweeps (the BENCH_scenarios.json driver)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioPoint:
    """One simulated ``(rate, seed)`` point of a scenario sweep."""

    rate: float | None
    seed: int
    num_messages: int
    stats: NetworkStats


@dataclass
class ScenarioSweep:
    """Result of :func:`run_scenario_sweep`: one scenario's load sweep.

    :meth:`curves` aggregates the seeds of each rate into one row and marks
    the rows on the throughput–latency Pareto front (maximise throughput,
    minimise mean latency); :meth:`to_json` is the ``BENCH_scenarios.json``
    entry format.
    """

    graph_name: str
    num_nodes: int
    num_links: int
    scenario: Scenario
    points: list[ScenarioPoint]
    wall_time_s: float
    #: The kernel backend the batched engine ran on (``"numpy"`` for the
    #: vectorised path and for a router only python calls can ask —
    #: degrading scenarios then run the scalar scenario loop).  Recorded so
    #: ``wall_time_s`` is attributable to a backend.
    kernel_backend: str = "numpy"

    def curves(self) -> list[dict]:
        grouped: dict[float | None, list[ScenarioPoint]] = {}
        for point in self.points:
            grouped.setdefault(point.rate, []).append(point)
        rows = []
        for rate in sorted(grouped, key=lambda r: (r is not None, r or 0.0)):
            points = grouped[rate]
            stats = [point.stats for point in points]
            rows.append(
                {
                    "rate": rate,
                    "seeds": len(points),
                    "messages": sum(point.num_messages for point in points),
                    "delivered": sum(s.delivered for s in stats),
                    "undelivered": sum(s.undelivered for s in stats),
                    "dropped_buffer": sum(s.dropped_buffer for s in stats),
                    "dropped_fault": sum(s.dropped_fault for s in stats),
                    "dropped_hops": sum(s.dropped_hops for s in stats),
                    "retransmits": sum(s.retransmits for s in stats),
                    "rerouted_hops": sum(s.rerouted_hops for s in stats),
                    "throughput": float(np.mean([s.throughput() for s in stats])),
                    "mean_latency": float(np.mean([s.mean_latency for s in stats])),
                    "max_latency": float(np.max([s.max_latency for s in stats])),
                }
            )
        for row, on_front in zip(rows, pareto_front(rows)):
            row["pareto"] = on_front
        return rows

    def to_json(self) -> dict:
        return {
            "graph": self.graph_name,
            "nodes": self.num_nodes,
            "links": self.num_links,
            "scenario": self.scenario.to_json(),
            "scenario_digest": self.scenario.digest(),
            "kernel_backend": self.kernel_backend,
            "wall_time_s": round(self.wall_time_s, 4),
            "curves": self.curves(),
        }


def pareto_front(rows: list[dict]) -> list[bool]:
    """Which rows are Pareto-optimal (max throughput, min mean latency)?"""
    flags = []
    for row in rows:
        dominated = any(
            other is not row
            and other["throughput"] >= row["throughput"]
            and other["mean_latency"] <= row["mean_latency"]
            and (
                other["throughput"] > row["throughput"]
                or other["mean_latency"] < row["mean_latency"]
            )
            for other in rows
        )
        flags.append(not dominated)
    return flags


def run_scenario_sweep(
    graph: BaseDigraph,
    scenario: Scenario,
    *,
    rates=(None,),
    seeds=range(3),
    router: str | None = None,
    until: float | None = None,
) -> ScenarioSweep:
    """Sweep the offered-load axis of one scenario on one topology.

    For each rate, the scenario's arrival process is re-parameterised with
    :meth:`Scenario.with_rate` and one traffic per seed is drawn
    (deterministically — the sharded/fleet paths can regenerate the same
    traffics from the same seeds).  Every ``(rate, seed)`` combination runs
    in one pooled
    :meth:`~repro.simulation.network.BatchedNetworkSimulator.run_many`
    pass, bit-identical to running each through the reference
    :class:`~repro.simulation.network.NetworkSimulator`.
    """
    n = graph.num_vertices
    combos = [(rate, int(seed)) for rate in rates for seed in seeds]
    traffics = [
        scenario.with_rate(rate).traffic(n, rng=seed) for rate, seed in combos
    ]
    simulator = BatchedNetworkSimulator(graph, scenario=scenario, router=router)
    start = _time.perf_counter()
    results = simulator.run_many(traffics, until=until, return_messages=False)
    stats_list = [stats for stats, _ in results]
    wall = _time.perf_counter() - start
    points = [
        ScenarioPoint(rate=rate, seed=seed, num_messages=len(traffic), stats=stats)
        for (rate, seed), traffic, stats in zip(combos, traffics, stats_list)
    ]
    return ScenarioSweep(
        graph_name=graph.name or f"digraph(n={n})",
        num_nodes=n,
        num_links=graph.num_arcs,
        scenario=scenario,
        points=points,
        wall_time_s=wall,
        kernel_backend=simulator.kernel_backend,
    )
