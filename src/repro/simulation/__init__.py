"""Discrete-event simulation of OTIS-based multiprocessor networks.

The paper positions OTIS layouts as the physical substrate of multihop
optical multiprocessor networks (Section 1; refs. [13, 14, 22, 27]).  This
subpackage provides the machinery to *run* workloads on the laid-out
topologies and compare them — the paper itself contains no such experiments,
so these are ablation/extension studies (documented as A2 in DESIGN.md), not
reproductions of printed numbers.

* :mod:`repro.simulation.events` — a minimal discrete-event engine: a
  heap-based callback queue with deterministic tie-breaking, plus the
  :class:`BatchEventQueue` that extracts whole same-timestamp batches for
  the vectorised engine.
* :mod:`repro.simulation.network` — a store-and-forward network built from
  any digraph, with per-hop latency taken from the OTIS hardware model and
  single-port injection/ejection constraints.  Every driver runs the
  array-pooled :class:`BatchedNetworkSimulator`; the event-at-a-time
  :class:`NetworkSimulator` is the reference the parity suites compare it
  against (bit-identical results; see the batched-engine contract in the
  module docstring).
* :mod:`repro.simulation.workloads` — synthetic traffic generators
  (uniform random, permutation, broadcast, all-to-all, hotspot), each
  returning a columnar :class:`Traffic`, and the
  multi-workload throughput driver :func:`run_throughput_sweep`.
* :mod:`repro.simulation.scenarios` — the composable scenario layers
  (arrival processes, finite link buffers, fault plans, reroute policies),
  the :class:`Scenario` composition both simulators accept, and the
  throughput–latency Pareto sweep driver :func:`run_scenario_sweep`.
* :mod:`repro.simulation.sharding` — chunked ``run_many`` over the
  resumable chunk-store machinery of :mod:`repro.otis.sweep`: replica
  blocks execute as named, atomically published chunks (filled by fleet
  workers, :mod:`repro.fleet`) whose merge is byte-identical to the
  in-process pass.
* :mod:`repro.simulation.protocols` — end-to-end experiments returning
  latency / throughput statistics.
"""

from repro.simulation.events import BatchEventQueue, EventQueue, Simulator
from repro.simulation.network import (
    BatchedNetworkSimulator,
    BufferedLinkModel,
    LinkModel,
    Message,
    NetworkSimulator,
    NetworkStats,
    Traffic,
    validate_traffic,
)
from repro.simulation.scenarios import (
    ARRIVAL_KINDS,
    REROUTE_KINDS,
    BurstyArrivals,
    DiurnalArrivals,
    FaultEvent,
    FaultPlan,
    HotspotArrivals,
    PermutationArrivals,
    Scenario,
    ScenarioSweep,
    UniformArrivals,
    make_arrivals,
    run_scenario_sweep,
)
from repro.simulation.protocols import (
    run_broadcast,
    run_gossip_traffic,
    run_point_to_point,
    run_random_traffic,
)
from repro.simulation.sharding import (
    ReplicaChunkManifest,
    merge_replica_stats,
    run_many_sharded,
)
from repro.simulation.workloads import (
    SWEEP_WORKLOADS,
    SweepPoint,
    ThroughputSweep,
    all_to_all_pairs,
    broadcast_pairs,
    hotspot_pairs,
    make_workload,
    permutation_pairs,
    run_throughput_sweep,
    uniform_random_pairs,
)

__all__ = [
    "EventQueue",
    "BatchEventQueue",
    "Simulator",
    "LinkModel",
    "BufferedLinkModel",
    "Message",
    "Traffic",
    "NetworkSimulator",
    "BatchedNetworkSimulator",
    "NetworkStats",
    "run_broadcast",
    "run_point_to_point",
    "run_random_traffic",
    "run_gossip_traffic",
    "uniform_random_pairs",
    "permutation_pairs",
    "broadcast_pairs",
    "all_to_all_pairs",
    "hotspot_pairs",
    "make_workload",
    "SWEEP_WORKLOADS",
    "SweepPoint",
    "ThroughputSweep",
    "run_throughput_sweep",
    "ReplicaChunkManifest",
    "merge_replica_stats",
    "run_many_sharded",
    "ARRIVAL_KINDS",
    "REROUTE_KINDS",
    "UniformArrivals",
    "HotspotArrivals",
    "PermutationArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "FaultEvent",
    "FaultPlan",
    "Scenario",
    "ScenarioSweep",
    "make_arrivals",
    "run_scenario_sweep",
    "validate_traffic",
]
