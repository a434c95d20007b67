"""Chunked ``run_many``: million-message studies over chunk stores.

:meth:`repro.simulation.network.BatchedNetworkSimulator.run_many` stacks many
replicas into one pooled pass, but one process and one address space.  This
module scales the same contract out, reusing the deterministic-partitioning
machinery the degree–diameter sweep built in :mod:`repro.otis.sweep` (the
Bobpp-style scheme of PAPERS.md):

* :class:`ReplicaChunkManifest` — a pure function of the simulation inputs
  that cuts the replica list into *named* chunks.  A chunk id hashes the
  topology fingerprint, the link timings, the router kind, the per-replica
  traffic digests and :func:`sim_code_version` (a fingerprint of the
  result-defining sources), so every host — and every re-run — agrees on
  which file holds which replicas, and no resumed study can mix results
  computed by different simulator code.
  Its ``manifest.json`` identity is built by the same
  :func:`repro.otis.sweep.manifest_identity` as the sweep's.
* chunks execute through :class:`repro.otis.sweep.ChunkStore`: each chunk's
  per-replica :class:`~repro.simulation.network.NetworkStats` are published
  as one atomic JSONL file by the fleet loop (:func:`repro.fleet.run_fleet`
  over a :class:`repro.fleet.SimFleetJob`), so an interrupted study resumes
  by skipping the chunk files already on disk and recomputing only the chunk
  that was in flight.
* :func:`merge_replica_stats` reads the store through the sweep's one
  reader, :func:`repro.otis.sweep.read_chunks`, and folds the chunk files
  back into the per-replica stats list **byte-identical** to the in-process
  ``run_many`` (per-replica results are independent of how replicas are
  stacked — the engine contract — and the JSON codec, derived from the
  :class:`~repro.simulation.network.NetworkStats` fields, round-trips every
  float exactly).

:func:`run_many_sharded` is the one-call wrapper (build, run one fleet
worker, merge); to run in parallel, start more fleet workers on the same
store.  The CLI front-end is ``python -m repro fleet sim --out-dir ...``
(``--merge`` folds the store into curves).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from repro.graphs.digraph import BaseDigraph
from repro.otis.sweep import (
    ChunkStore,
    SweepChunk,
    ensure_store_identity,
    fingerprint_closure,
    make_chunks,
    manifest_identity,
    read_chunks,
)
from repro.simulation.network import (
    BatchedNetworkSimulator,
    LinkModel,
    NetworkStats,
)

__all__ = [
    "sim_code_version",
    "graph_fingerprint",
    "traffic_digest",
    "verify_traffics",
    "stats_to_json",
    "stats_from_json",
    "ReplicaChunkManifest",
    "run_replica_chunk",
    "merge_replica_stats",
    "run_many_sharded",
]

def sim_code_version() -> str:
    """Fingerprint of the simulator-defining code (chunk-id component).

    Rooted at this module, whose ``run_replica_chunk`` and ``stats_to_json``
    define the replica record; the import closure takes in the modules
    ``ClosedFormRouter`` imports lazily to build its relabelling.  The
    active kernel backend is not part of it (same rationale as the sweep's
    ``code_version``): the parity suites prove both backends give the same
    records, so a store resumes across ``cnative``/``numpy``.
    """
    return fingerprint_closure(Path(__file__))


def graph_fingerprint(graph: BaseDigraph) -> str:
    """Stable digest of a topology (vertex count, name and arc multiset)."""
    digest = hashlib.sha256()
    digest.update(f"{graph.num_vertices}:{graph.name}".encode())
    arcs = np.fromiter(
        (x for arc in graph.arcs() for x in arc), dtype=np.int64
    )
    digest.update(arcs.tobytes())
    return digest.hexdigest()[:16]


def traffic_digest(traffic: np.ndarray) -> str:
    """Stable digest of one replica's ``(source, destination, time)`` triples."""
    array = np.ascontiguousarray(np.asarray(traffic, dtype=float))
    if array.size == 0:
        array = array.reshape(0, 3)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ValueError(
            "traffic must be a sequence of (source, destination, time) triples"
        )
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


# --------------------------------------------------------------------------
# NetworkStats JSON codec (exact float round-trip)
# --------------------------------------------------------------------------
#: ``{field name: int or float}`` of :class:`NetworkStats`, in field order.
_STATS_FIELDS = get_type_hints(NetworkStats)


def stats_to_json(stats: NetworkStats) -> dict:
    """One :class:`NetworkStats` as a JSON object, keyed in field order.

    Python's ``json`` serialises floats with ``repr``, the shortest string
    that round-trips exactly — which is what lets the sharded path promise
    *byte-identical* merged results, not merely close ones.
    """
    return {name: getattr(stats, name) for name in _STATS_FIELDS}


def stats_from_json(record: dict) -> NetworkStats:
    """Inverse of :func:`stats_to_json`: every field, cast to its type."""
    return NetworkStats(
        **{name: kind(record[name]) for name, kind in _STATS_FIELDS.items()}
    )


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaChunkManifest:
    """Deterministic partition of a ``run_many`` replica list into chunks.

    ``chunks[i].items`` holds ``(replica_index, traffic_digest)`` pairs; the
    digests tie each chunk id to the exact traffic content, so two hosts
    sharing a store directory can only ever agree on a chunk when they
    simulate the same messages on the same topology with the same code.
    """

    graph_fp: str
    link: LinkModel
    router: str
    num_replicas: int
    chunk_size: int
    code_version: str
    chunks: tuple[SweepChunk, ...]
    scenario: object | None = None

    @classmethod
    def build(
        cls,
        graph: BaseDigraph,
        traffics,
        *,
        link: LinkModel | None = None,
        router: str = "auto",
        chunk_size: int = 4,
        code_version: str | None = None,
        scenario=None,
    ) -> "ReplicaChunkManifest":
        """Partition ``traffics`` (one entry per replica) into named chunks.

        ``code_version`` defaults to :func:`sim_code_version` and should only
        be overridden by tests (to simulate a version bump without editing
        sources).  A ``scenario`` (:class:`repro.simulation.scenarios.
        Scenario`) carries its own link model — its
        :meth:`~repro.simulation.scenarios.Scenario.digest` joins the chunk
        identity, so fleet workers sharding a scenario sweep can only agree
        on a chunk when they run the same fault plan, buffers and reroute
        policy (the traffics stay explicit: digested per replica as usual).
        """
        if scenario is not None and link is not None:
            raise ValueError("pass either link or scenario, not both")
        link = scenario.link if scenario is not None else (link or LinkModel())
        version = sim_code_version() if code_version is None else code_version
        graph_fp = graph_fingerprint(graph)
        items = [
            (index, traffic_digest(traffic))
            for index, traffic in enumerate(traffics)
        ]
        identity = [
            "run_many",
            graph_fp,
            link.latency,
            link.transmission_time,
            router,
            version,
        ]
        if scenario is not None:
            identity.append(scenario.digest())
        return cls(
            graph_fp=graph_fp,
            link=link,
            router=router,
            num_replicas=len(items),
            chunk_size=chunk_size,
            code_version=version,
            chunks=make_chunks(items, chunk_size, identity),
            scenario=scenario,
        )

    def identity(self) -> dict:
        """The JSON identity persisted as ``manifest.json`` in a store.

        Same contract as :meth:`repro.otis.sweep.ChunkManifest.identity`:
        every parameter that renames the chunk ids (the traffic digests are
        covered through the ids), so a relaunch of an
        out-dir with a different topology, link timing, router, replica set
        or simulator code fails fast instead of silently matching nothing.
        """
        scenario = {}
        if self.scenario is not None:
            scenario["scenario_digest"] = self.scenario.digest()
        return manifest_identity(
            self,
            "run_many-replicas",
            graph_fingerprint=self.graph_fp,
            link_latency=self.link.latency,
            link_transmission_time=self.link.transmission_time,
            router=self.router,
            num_replicas=self.num_replicas,
            **scenario,
        )


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------
def verify_traffics(manifest: ReplicaChunkManifest, traffics) -> list[np.ndarray]:
    """Check ``traffics`` against a manifest; returns them as float arrays.

    The fleet job calls this before any chunk runs: it must refuse to
    simulate messages other than the ones the chunk ids were derived from —
    a mismatch means the caller is trying to resume a store with different
    traffic, which would poison the merge.
    """
    if len(traffics) != manifest.num_replicas:
        raise ValueError(
            f"manifest covers {manifest.num_replicas} replicas, got "
            f"{len(traffics)} traffics"
        )
    arrays = [np.asarray(traffic, dtype=float) for traffic in traffics]
    for chunk in manifest.chunks:
        for index, digest in chunk.items:
            if traffic_digest(arrays[index]) != digest:
                raise ValueError(
                    f"traffic of replica {index} does not match the manifest "
                    "digest (different messages than the store was built for)"
                )
    return arrays


def run_replica_chunk(
    graph: BaseDigraph,
    entries,
    *,
    link: LinkModel | None = None,
    router: str = "auto",
    scenario=None,
) -> list[dict]:
    """Simulate one chunk's replicas; returns one record per replica.

    ``entries`` is the chunk's ``[(replica index, traffic), ...]`` list.
    Each chunk is its own ``run_many`` stack, and per-replica results are
    independent of the stacking (the batched-engine contract, scenario runs
    included), so chunk boundaries never show in the merged output.
    """
    if scenario is not None:
        simulator = BatchedNetworkSimulator(graph, scenario=scenario, router=router)
    else:
        simulator = BatchedNetworkSimulator(graph, link=link, router=router)
    results = simulator.run_many(
        [traffic for _, traffic in entries], return_messages=False
    )
    return [
        {"replica": index, "stats": stats_to_json(stats)}
        for (index, _), (stats, _) in zip(entries, results)
    ]


def merge_replica_stats(
    manifest: ReplicaChunkManifest, store: ChunkStore | str | Path
) -> list[NetworkStats]:
    """Fold a store's chunk files into the per-replica stats list.

    The result is byte-identical to
    ``[stats for stats, _ in simulator.run_many(traffics,
    return_messages=False)]``; raises
    :class:`~repro.otis.sweep.StoreIdentityError` before anything else when
    the store's ``manifest.json`` was written for different parameters,
    then ``FileNotFoundError`` naming the missing chunk ids when any chunk
    has not been published (:func:`~repro.otis.sweep.read_chunks`).
    """
    if not isinstance(store, ChunkStore):
        store = ChunkStore(store)
    ensure_store_identity(store, manifest.identity())
    stats: list[NetworkStats | None] = [None] * manifest.num_replicas
    for record in read_chunks(store, manifest):
        stats[int(record["replica"])] = stats_from_json(record["stats"])
    if any(entry is None for entry in stats):  # pragma: no cover - defensive
        raise ValueError("chunk files do not cover every replica")
    return stats  # type: ignore[return-value]


def run_many_sharded(
    graph: BaseDigraph,
    traffics,
    *,
    link: LinkModel | None = None,
    scenario=None,
    router: str = "auto",
    store: ChunkStore | str | Path,
    chunk_size: int = 4,
) -> list[NetworkStats]:
    """One-call build → run → merge pipeline over a chunk store.

    Equivalent to ``BatchedNetworkSimulator(graph, link,
    router=router).run_many(traffics, return_messages=False)`` with the
    replica blocks executed as resumable chunks by one fleet worker —
    per-replica :class:`NetworkStats` are byte-identical to the in-process
    path.  The store outlives the call: a rerun after an interruption
    recomputes only the unpublished chunks, and fleet workers started on
    the same store (other processes or hosts) share the chunks; this call
    waits for their leases before it merges.
    """
    from repro.fleet.driver import SimFleetJob, run_fleet

    manifest = ReplicaChunkManifest.build(
        graph,
        traffics,
        link=link,
        scenario=scenario,
        router=router,
        chunk_size=chunk_size,
    )
    job = SimFleetJob(manifest, store, graph, traffics)
    run_fleet(job)
    return job.merge()
