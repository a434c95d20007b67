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
from dataclasses import dataclass
from pathlib import Path

from repro.fleet.leases import Heartbeat, Lease, LeaseManager
from repro.otis.sweep import (
    ChunkManifest,
    ChunkStore,
    SplitVerdictCache,
    SweepChunk,
    assemble_split,
    ensure_store_identity,
    merge_sweep,
    run_chunk,
    split_chunk,
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
    directory shared by the fleet: each worker appends fresh verdicts with
    single ``O_APPEND`` writes, so any number of workers share one cache
    file safely.
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
        # The merge_sweep(partial=True) fold, but strictly read-only (no
        # identity write): status readers must never mutate the store.
        from repro.otis.sweep import fold_records

        complete = self.store.completed_ids()
        records: list[dict] = []
        for chunk in self.chunks():
            if chunk.chunk_id in complete:
                records.extend(self.store.read(chunk))
        partial = fold_records(self.manifest, records)
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


@dataclass(frozen=True)
class _Unit:
    """One claimable piece of fleet work.

    ``kind`` is ``"chunk"`` (a whole manifest chunk), ``"sub"`` (one
    deterministically named sub-chunk of a split parent) or ``"asm"``
    (assembling a fully published split back into its parent file).  The
    lease id doubles as the unit's identity: ``<chunk_id>`` for chunks,
    ``<parent>.s<i>`` for sub-chunks, ``<parent>.asm`` for assembly — all
    distinct because chunk ids are 16 hex digits with no dots.
    """

    kind: str
    chunk: SweepChunk  # the chunk to compute ("chunk"/"sub") or parent ("asm")
    parent: SweepChunk | None = None
    parts: int | None = None

    @property
    def lease_id(self) -> str:
        if self.kind == "asm":
            return f"{self.chunk.chunk_id}.asm"
        return self.chunk.chunk_id

    def settled(self, store: ChunkStore, published: set[str]) -> bool:
        """Is this unit's output (or its parent's) already on disk?"""
        if self.kind == "chunk":
            return self.chunk.chunk_id in published
        if self.kind == "sub":
            assert self.parent is not None
            return (
                self.chunk.chunk_id in published
                or self.parent.chunk_id in published
            )
        return self.chunk.chunk_id in published  # asm: parent file exists


def _build_units(job: FleetJob, published: set[str]) -> list[_Unit]:
    """The claimable unit list for one scan pass.

    One directory listing for the split markers (like the ``published``
    snapshot, one listing instead of a stat per chunk) — every worker that
    sees a marker derives the identical sub-chunk set, so the unit list is
    a pure function of (manifest, store state) and needs no coordination.
    """
    split_ids = {
        path.name[len("split-") : -len(".json")]
        for path in sorted(job.store.directory.glob("split-*.json"))
    }
    units: list[_Unit] = []
    for chunk in job.chunks():
        if chunk.chunk_id in published:
            continue
        parts = (
            job.store.split_parts(chunk) if chunk.chunk_id in split_ids else None
        )
        if parts is None:
            units.append(_Unit("chunk", chunk))
            continue
        subs = split_chunk(chunk, parts)
        for sub in subs:
            if sub.chunk_id not in published:
                units.append(_Unit("sub", sub, parent=chunk, parts=parts))
        units.append(_Unit("asm", chunk, parts=parts))
    return units


def run_fleet(
    job: FleetJob,
    *,
    worker_id: str | None = None,
    ttl: float = DEFAULT_TTL,
    heartbeat: float | None = None,
    wait: bool = True,
    poll: float | None = None,
    max_chunks: int | None = None,
    prefetch: bool = True,
    split_after: float | None = None,
    split_parts: int = 2,
    clock_skew: float = 0.0,
    handle_sigterm: bool = False,
) -> dict:
    """Drive a fleet worker over a job until every chunk is published.

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
        every cooperating worker must use the same value.
    heartbeat:
        Lease refresh interval while computing a chunk (default
        ``ttl * 0.25``).  Must be well below ``ttl``.
    wait:
        When True (default), a worker that finds every remaining chunk
        leased by live peers polls until the store completes — so it also
        picks up chunks whose owners crash later.  False returns as soon as
        nothing is claimable (used by tests and one-shot helpers).
    poll:
        Initial re-scan interval while waiting (default ``ttl / 4``, clamped
        to [0.05, 2.0] seconds).  Idle passes back off exponentially up to
        ``max(poll, 5.0)`` so an idle fleet does not hammer shared storage;
        any progress resets the backoff.
    max_chunks:
        Stop after running this many units (smoke tests, draining).
    prefetch:
        Claim the next claimable unit *while computing the current one*
        (kept alive by the same heartbeat thread), hiding the claim/scan
        latency of shared storage between chunks.
    split_after:
        Straggler policy: when this worker is idle and a *live* lease has
        been held longer than ``split_after`` seconds on an unsplit chunk
        with at least two items, publish a split marker cutting it into
        ``split_parts`` deterministically named sub-chunks any worker
        (including the straggler) can claim.  The assembled parent is
        byte-identical to the unsplit run, so racing the original owner is
        benign.  None (default) disables splitting.
    split_parts:
        How many sub-chunks a straggler split produces (≥ 2, clamped to the
        chunk's item count).
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
    dict with the worker id, ``ran`` / ``lost`` unit-id lists (``lost`` =
    computed but not published because the lease expired mid-run and another
    worker reclaimed it), ``splits`` (markers this worker published),
    ``terminated`` (stopped by SIGTERM) and ``complete`` (whether the whole
    store finished).
    """
    if heartbeat is None:
        heartbeat = ttl * DEFAULT_HEARTBEAT_FRACTION
    if not 0 < heartbeat < ttl:
        raise ValueError("need 0 < heartbeat < ttl")
    if poll is None:
        poll = min(2.0, max(0.05, ttl / 4.0))
    worker = worker_id or default_worker_id()
    ensure_store_identity(job.store, job.identity())
    leases = LeaseManager(
        job.store.directory / LEASE_DIR_NAME, ttl=ttl, clock_skew=clock_skew
    )
    ran: list[str] = []
    lost: list[str] = []
    splits: list[str] = []
    terminated = False
    sleep_s = poll
    prefetched: tuple[_Unit, Lease] | None = None

    def _run_unit(unit: _Unit, lease: Lease, extras: list[Lease]) -> bool:
        """Compute/assemble one claimed unit; True when it made progress."""
        if unit.kind == "asm":
            assert unit.parts is not None
            if assemble_split(job.store, unit.chunk, unit.parts):
                ran.append(unit.lease_id)
                return True
            return False
        with Heartbeat(lease, interval=heartbeat, extras=extras):
            records = job.run_chunk(unit.chunk)
        if lease.owned():
            job.store.write(unit.chunk, records)
            ran.append(unit.lease_id)
            if unit.kind == "sub":
                # Opportunistic assembly: if ours was the last sub-chunk,
                # fold the parent immediately rather than waiting for the
                # ``.asm`` unit holder.  Byte-identical either way, so the
                # race with a concurrent assembler (or the original
                # straggler) is benign.
                assert unit.parent is not None and unit.parts is not None
                assemble_split(job.store, unit.parent, unit.parts)
            return True
        # The lease expired mid-run (this worker stalled past the TTL) and
        # was reclaimed: the reclaimer owns publication now.  Discard our
        # records — publishing over a fresher claim would race the
        # reclaimer's execution of the same chunk.
        lost.append(unit.lease_id)
        return True

    def _maybe_split_stragglers() -> bool:
        """Idle-time straggler policy; True when a new split was published."""
        requested = False
        # The lease manager's clock, not time.time(): straggler age compares
        # against lease acquisition stamps written by that same clock, and a
        # chaos-injected frozen/skewed clock must govern both sides alike.
        now = leases.now()
        for chunk in job.chunks():
            if len(chunk.items) < 2 or job.store.is_complete(chunk):
                continue
            if job.store.split_parts(chunk) is not None:
                continue
            record = leases.holder_record(chunk.chunk_id)
            if record is None or leases.is_expired(leases.path_for(chunk.chunk_id)):
                continue  # unheld or reclaimable — ordinary claiming handles it
            acquired = record.get("acquired_unix")
            if not isinstance(acquired, (int, float)):
                continue
            if now - acquired > split_after:
                try:
                    job.store.request_split(chunk, split_parts)
                except OSError:
                    continue
                splits.append(chunk.chunk_id)
                requested = True
        return requested

    previous_handler = None
    if handle_sigterm:

        def _on_sigterm(signum, frame):
            raise FleetTerminated(f"worker {worker}: SIGTERM")

        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        while True:
            claimed_any = False
            # One directory listing per pass instead of a stat per chunk —
            # on a many-thousand-chunk store over NFS the difference is
            # thousands of round-trips every poll interval.  The snapshot
            # may be stale by the time a unit is claimed, hence the
            # authoritative per-unit settled() re-check under the freshly
            # held lease below.
            published = job.store.completed_ids()
            units = _build_units(job, published)
            if prefetched is not None and prefetched[0].settled(
                job.store, published
            ):
                # Someone published the prefetched unit under us — drop the
                # lease now rather than holding a claim on finished work.
                prefetched[1].release()
                prefetched = None
            index = 0
            while index < len(units):
                unit = units[index]
                index += 1
                if max_chunks is not None and len(ran) >= max_chunks:
                    break
                if unit.settled(job.store, published):
                    continue
                if prefetched is not None and prefetched[0] == unit:
                    lease = prefetched[1]
                    prefetched = None
                    if not lease.owned():
                        lease = leases.try_acquire(unit.lease_id, worker=worker)
                else:
                    lease = leases.try_acquire(unit.lease_id, worker=worker)
                if lease is None:
                    continue
                try:
                    if unit.settled(job.store, job.store.completed_ids()):
                        continue  # published between our scan and claim
                    extras: list[Lease] = []
                    if prefetch and unit.kind != "asm":
                        # Claim the next runnable unit now, while this one
                        # computes; the heartbeat keeps both alive.
                        for nxt in units[index:]:
                            if nxt.settled(job.store, published):
                                continue
                            nxt_lease = leases.try_acquire(
                                nxt.lease_id, worker=worker
                            )
                            if nxt_lease is not None:
                                prefetched = (nxt, nxt_lease)
                                extras.append(nxt_lease)
                                break
                    if _run_unit(unit, lease, extras):
                        claimed_any = True
                finally:
                    lease.release()
            published = job.store.completed_ids()
            if all(chunk.chunk_id in published for chunk in job.chunks()):
                break
            if max_chunks is not None and len(ran) >= max_chunks:
                break
            if claimed_any:
                sleep_s = poll
            else:
                if split_after is not None and _maybe_split_stragglers():
                    sleep_s = poll
                    continue  # new sub-chunks are claimable right now
                if not wait:
                    break
                time.sleep(sleep_s)
                sleep_s = min(max(poll, MAX_POLL), sleep_s * 2)
    except FleetTerminated:
        terminated = True
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        if prefetched is not None:
            prefetched[1].release()
            prefetched = None
    published = job.store.completed_ids()
    return {
        "worker": worker,
        "ran": ran,
        "lost": lost,
        "splits": splits,
        "terminated": terminated,
        "complete": all(chunk.chunk_id in published for chunk in job.chunks()),
        "chunks": len(job.chunks()),
        "store": str(job.store.directory),
    }
