"""The fleet loop: claim a chunk, run it, publish it, release, repeat.

This is the one way a chunk store is filled.  A single worker is the
serial run; parallelism is N workers (processes on one host, or hosts on a
shared filesystem) pointed at the same store; a relaunch after an
interruption skips every chunk already published.

:class:`FleetJob` is the small protocol that makes the two chunk backends —
the degree–diameter sweep (:mod:`repro.otis.sweep`) and the replica
simulation (:mod:`repro.simulation.sharding`) — interchangeable under one
driver.  A job owns a manifest (the named chunks), a
:class:`~repro.otis.sweep.ChunkStore` (the published results) and knows how
to compute one chunk's records; :func:`run_fleet` supplies everything else:
store-identity verification, lease claiming with TTL/heartbeat, reclaim of
crashed workers' chunks, and termination once every chunk is published.

The driver adds **no semantics** to the results: a chunk's records are the
same bytes whichever worker computed them, and however many workers shared
the store (chunk computations are pure, publication is one atomic rename),
so fleet merges are byte-identical to the in-memory paths — the property
every test in ``tests/test_fleet.py`` pins down.
"""

from __future__ import annotations

import os
import signal
import socket
import time
import uuid
from pathlib import Path

from repro.fleet.leases import Heartbeat, LeaseManager
from repro.otis.sweep import (
    ChunkManifest,
    ChunkStore,
    SplitVerdictCache,
    SweepChunk,
    ensure_store_identity,
    merge_sweep,
    read_chunks,
    run_chunk,
)

__all__ = [
    "DEFAULT_TTL",
    "DEFAULT_HEARTBEAT_FRACTION",
    "LEASE_DIR_NAME",
    "FleetJob",
    "FleetTerminated",
    "SweepFleetJob",
    "SimFleetJob",
    "run_fleet",
    "default_worker_id",
]

#: Default lease TTL in seconds.  Generous against scheduler/NFS hiccups yet
#: short enough that a crashed worker's chunk is reclaimed within a minute.
DEFAULT_TTL = 60.0

#: Heartbeat interval as a fraction of the TTL: four beats per TTL window,
#: so one lost beat (GC pause, NFS retry) never looks like a death.
DEFAULT_HEARTBEAT_FRACTION = 0.25

#: Subdirectory of the chunk store holding the lease files.
LEASE_DIR_NAME = "leases"


#: Ceiling of the idle-poll exponential backoff (seconds) — a fleet of idle
#: workers re-scans shared storage at most every ~5 s instead of hammering it.
MAX_POLL = 5.0


def default_worker_id() -> str:
    """A worker id unique across hosts and restarts (host-pid-nonce)."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class FleetTerminated(Exception):
    """Raised in the worker's main thread by the SIGTERM handler.

    :func:`run_fleet` (with ``handle_sigterm=True``) converts the signal into
    this exception so the normal ``finally`` chain runs — the current lease
    is released promptly instead of lingering until TTL reclaim — and the
    outcome dict reports ``terminated=True``.
    """


class FleetJob:
    """One fleet-drivable workload: a manifest of chunks over a store.

    Subclasses bind a concrete backend.  ``manifest`` must expose
    ``chunks`` (a tuple of :class:`~repro.otis.sweep.SweepChunk`) and
    ``identity()`` (the ``manifest.json`` payload); ``run_chunk`` must be a
    pure function of the chunk — the driver may execute it on any worker,
    more than once across reclaims, and relies on every execution producing
    identical records.
    """

    manifest = None
    store: ChunkStore = None  # type: ignore[assignment]

    def chunks(self) -> tuple[SweepChunk, ...]:
        return self.manifest.chunks

    def identity(self) -> dict:
        return self.manifest.identity()

    def run_chunk(self, chunk: SweepChunk) -> list[dict]:
        raise NotImplementedError

    def merge(self):
        """Fold the completed store into the backend's final result."""
        raise NotImplementedError

    def progress_summary(self) -> str:
        """One human line of domain progress (shown by ``--watch``)."""
        return ""

    def describe(self) -> str:
        return f"{type(self).__name__}: {len(self.chunks())} chunks"


class SweepFleetJob(FleetJob):
    """Degree–diameter sweep chunks (:mod:`repro.otis.sweep`) as a fleet job.

    ``cache`` is the optional :class:`~repro.otis.sweep.SplitVerdictCache`
    directory shared by the fleet: each worker appends a chunk's fresh
    verdicts with one ``O_APPEND`` write, so any number of workers share
    one cache file safely.
    """

    def __init__(
        self,
        manifest: ChunkManifest,
        store: ChunkStore | str | Path,
        *,
        cache: SplitVerdictCache | str | Path | None = None,
    ):
        self.manifest = manifest
        self.store = store if isinstance(store, ChunkStore) else ChunkStore(store)
        if isinstance(cache, SplitVerdictCache):
            self._cache = cache
        elif cache is not None:
            self._cache = SplitVerdictCache(
                cache, manifest.d, manifest.diameter, version=manifest.code_version
            )
        else:
            self._cache = None

    def run_chunk(self, chunk: SweepChunk) -> list[dict]:
        return run_chunk(
            self.manifest.d, self.manifest.diameter, chunk.items, self._cache
        )

    def merge(self):
        return merge_sweep(self.manifest, self.store)

    def progress_summary(self) -> str:
        # The merge_sweep(partial=True) fold without its identity write:
        # status readers must never mutate the store.
        records = read_chunks(self.store, self.manifest, partial=True)
        partial = self.manifest.fold(records)
        splits = sum(len(entries) for _, entries in partial.rows)
        return (
            f"d={self.manifest.d} D={self.manifest.diameter}: "
            f"{len(partial.rows)} table rows ({splits} splits) so far"
        )

    def describe(self) -> str:
        return (
            f"sweep d={self.manifest.d} D={self.manifest.diameter} "
            f"n={self.manifest.n_values[0]}..{self.manifest.n_values[-1]}: "
            f"{len(self.chunks())} chunks "
            f"(code version {self.manifest.code_version})"
        )


class SimFleetJob(FleetJob):
    """Replica-simulation chunks (:mod:`repro.simulation.sharding`) as a job.

    The supplied traffics are verified against the manifest's digests once,
    up front — the fleet must never simulate messages other than the ones
    the chunk ids were derived from.
    """

    def __init__(self, manifest, store: ChunkStore | str | Path, graph, traffics):
        from repro.simulation.sharding import verify_traffics

        self.manifest = manifest
        self.store = store if isinstance(store, ChunkStore) else ChunkStore(store)
        self.graph = graph
        self._arrays = verify_traffics(manifest, traffics)

    def run_chunk(self, chunk: SweepChunk) -> list[dict]:
        from repro.simulation.sharding import run_replica_chunk

        return run_replica_chunk(
            self.graph,
            [(index, self._arrays[index]) for index, _ in chunk.items],
            link=self.manifest.link,
            router=self.manifest.router,
            scenario=self.manifest.scenario,
        )

    def merge(self):
        from repro.simulation.sharding import merge_replica_stats

        return merge_replica_stats(self.manifest, self.store)

    def progress_summary(self) -> str:
        complete = self.store.completed_ids()
        replicas = sum(
            len(chunk.items)
            for chunk in self.chunks()
            if chunk.chunk_id in complete
        )
        return f"{replicas}/{self.manifest.num_replicas} replicas simulated"

    def describe(self) -> str:
        return (
            f"sim {self.graph.name}: {self.manifest.num_replicas} replicas in "
            f"{len(self.chunks())} chunks (router {self.manifest.router}, "
            f"code version {self.manifest.code_version})"
        )


def run_fleet(
    job: FleetJob,
    *,
    worker_id: str | None = None,
    ttl: float = DEFAULT_TTL,
    heartbeat: float | None = None,
    wait: bool = True,
    max_chunks: int | None = None,
    clock_skew: float = 0.0,
    handle_sigterm: bool = False,
) -> dict:
    """Drive a fleet worker over a job until every chunk is published.

    One loop: list the published chunks, then for each unpublished chunk
    try to claim its lease, re-check that it is still unpublished, compute
    it while the worker's one heartbeat thread refreshes its lease, publish
    it if the lease is still ours, and release.  A worker holds at most one
    lease at any time, and none between chunks.

    Parameters
    ----------
    job:
        The workload.  Any number of ``run_fleet`` processes may drive the
        same job concurrently — chunk assignment is dynamic, through the
        lease files under ``<store>/leases/``.
    worker_id:
        Identity written into lease files (diagnostics only; defaults to
        ``host-pid-nonce``).
    ttl:
        Lease expiry in seconds.  **A protocol constant of the out-dir**:
        every cooperating worker must use the same value.  It also sets the
        re-scan interval while waiting (``ttl / 4``, clamped to [0.05, 2.0]
        seconds); idle passes back off exponentially up to 5 s so an idle
        fleet does not hammer shared storage, and any progress resets the
        backoff.
    heartbeat:
        Lease refresh interval while computing a chunk (default
        ``ttl * 0.25``).  Must be well below ``ttl``.
    wait:
        When True (default), a worker that finds every remaining chunk
        leased by live peers polls until the store completes — so it also
        picks up chunks whose owners crash later.  False returns as soon as
        nothing is claimable (used by tests and one-shot helpers).
    max_chunks:
        Stop after publishing this many chunks (smoke tests, draining).
    clock_skew:
        Worst plausible wall-clock offset between fleet hosts, widening the
        lease-expiry margin (see :class:`~repro.fleet.leases.LeaseManager`).
    handle_sigterm:
        Install a SIGTERM handler (main thread only) that raises
        :class:`FleetTerminated` so the current lease is released promptly
        and the outcome reports ``terminated=True`` instead of the process
        dying mid-chunk and holding the lease until TTL reclaim.

    Returns
    -------
    dict with the worker id, ``ran`` / ``lost`` chunk-id lists (``lost`` =
    computed but not published because the lease expired mid-run and another
    worker reclaimed it), ``terminated`` (stopped by SIGTERM) and
    ``complete`` (whether the whole store finished).
    """
    if heartbeat is None:
        heartbeat = ttl * DEFAULT_HEARTBEAT_FRACTION
    if not 0 < heartbeat < ttl:
        raise ValueError("need 0 < heartbeat < ttl")
    poll = min(2.0, max(0.05, ttl / 4.0))
    worker = worker_id or default_worker_id()
    ensure_store_identity(job.store, job.identity())
    leases = LeaseManager(
        job.store.directory / LEASE_DIR_NAME, ttl=ttl, clock_skew=clock_skew
    )
    ran: list[str] = []
    lost: list[str] = []
    terminated = False
    sleep_s = poll

    previous_handler = None
    if handle_sigterm:

        def _on_sigterm(signum, frame):
            raise FleetTerminated(f"worker {worker}: SIGTERM")

        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    beat = Heartbeat(None, interval=heartbeat)
    try:
        beat.start()
        while True:
            # One directory listing per pass instead of a stat per chunk —
            # on a many-thousand-chunk store over NFS the difference is
            # thousands of round-trips every poll interval.  The snapshot
            # may be stale by the time a chunk is claimed, hence the
            # authoritative is_complete() re-check under the held lease.
            published = job.store.completed_ids()
            pending = [c for c in job.chunks() if c.chunk_id not in published]
            if not pending or (max_chunks is not None and len(ran) >= max_chunks):
                break
            progressed = False
            for chunk in pending:
                if max_chunks is not None and len(ran) >= max_chunks:
                    break
                lease = leases.try_acquire(chunk.chunk_id, worker=worker)
                if lease is None:
                    continue
                try:
                    if job.store.is_complete(chunk):
                        continue  # published between our scan and claim
                    beat.hold(lease)
                    records = job.run_chunk(chunk)
                    beat.hold(None)
                    if lease.owned():
                        job.store.write(chunk, records)
                        ran.append(chunk.chunk_id)
                    else:
                        # The lease expired mid-run (this worker stalled
                        # past the TTL) and was reclaimed: the reclaimer
                        # owns publication now.  Publishing over a fresher
                        # claim would race its execution of the same chunk.
                        lost.append(chunk.chunk_id)
                    progressed = True
                finally:
                    beat.hold(None)
                    lease.release()
            if progressed:
                sleep_s = poll
                continue
            if not wait:
                break
            time.sleep(sleep_s)
            sleep_s = min(MAX_POLL, sleep_s * 2)
    except FleetTerminated:
        terminated = True
    finally:
        beat.stop()
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
    published = job.store.completed_ids()
    return {
        "worker": worker,
        "ran": ran,
        "lost": lost,
        "terminated": terminated,
        "complete": all(chunk.chunk_id in published for chunk in job.chunks()),
        "chunks": len(job.chunks()),
        "store": str(job.store.directory),
    }
