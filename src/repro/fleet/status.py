"""Progress and heartbeat snapshots over a fleet's shared store.

A status reader stats the chunk files and the lease files; it never claims,
reclaims or publishes anything, so ``--watch`` can run on a laptop against
an out-dir that a fleet of other machines is filling.  (Its only side
effect is creating the directory skeleton when pointed at a path that does
not exist yet.)
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.fleet.driver import LEASE_DIR_NAME, FleetJob
from repro.fleet.leases import LeaseManager
from repro.otis.sweep import STORE_IDENTITY_NAME, ChunkStore, StoreIdentityError

__all__ = ["fleet_status", "store_status", "status_to_json", "format_status"]


def _snapshot(
    store: ChunkStore, num_chunks: int, complete: int, published: set[str], ttl: float
) -> dict:
    """Completion counts plus the store's leases, split into live and expired.

    Leases of published chunks are skipped (the release-after-publish race).
    """
    leases = LeaseManager(store.directory / LEASE_DIR_NAME, ttl=ttl)
    running = []
    expired = []
    for info in leases.active():
        if info.chunk_id not in published:
            (expired if info.expired else running).append(info)
    return {
        "chunks": num_chunks,
        "complete": complete,
        "running": running,
        "expired": expired,
        "pending": max(0, num_chunks - complete - len(running) - len(expired)),
        "done": complete >= num_chunks,
    }


def fleet_status(job: FleetJob, *, ttl: float) -> dict:
    """One snapshot of a job's store: completion counts plus live leases.

    ``ttl`` must be the fleet's TTL — it decides which leases count as live
    heartbeats and which as expired (reclaimable, owner presumed dead).
    """
    chunks = job.chunks()
    published = job.store.completed_ids()
    complete = len(published & {chunk.chunk_id for chunk in chunks})
    return _snapshot(job.store, len(chunks), complete, published, ttl)


def store_status(directory: str | Path, *, ttl: float) -> dict:
    """A :func:`fleet_status`-shaped snapshot read from a store directory.

    Works without reconstructing the job (no graph, traffics or search
    parameters needed): the chunk ids come from the ``manifest.json``
    identity the first worker published, completion from the chunk files
    of those ids (the set a merge reads; files of another manifest do not
    count), liveness from the lease files.  This is what ``repro fleet
    status`` uses — any machine that can see the shared out-dir can poll
    it.
    """
    store = ChunkStore(directory)
    identity_path = store.directory / STORE_IDENTITY_NAME
    if not identity_path.exists():
        raise FileNotFoundError(
            f"no {STORE_IDENTITY_NAME} in {store.directory} — no fleet has "
            "written to this out-dir yet"
        )
    identity = json.loads(identity_path.read_text())
    if "chunk_ids" not in identity:
        raise StoreIdentityError(
            f"{identity_path} names no chunk ids: an older version wrote "
            "this store; use a fresh --out-dir"
        )
    published = store.completed_ids()
    complete = len(published & set(identity["chunk_ids"]))
    status = _snapshot(store, int(identity["num_chunks"]), complete, published, ttl)
    status["identity"] = identity
    return status


def status_to_json(status: dict) -> dict:
    """One status snapshot as a JSON-serialisable object (stable schema).

    The ``running`` / ``expired`` lease lists become plain dicts with the
    :class:`~repro.fleet.leases.LeaseInfo` fields (``chunk_id``, ``worker``,
    ``pid``, ``host``, ``age_s``, ``expired``); everything else is already
    JSON-native.  ``json.loads(json.dumps(status_to_json(s)))`` round-trips
    exactly — the contract ``repro fleet status --json`` exposes to
    dashboards and cron jobs.
    """
    payload = dict(status)
    payload["running"] = [asdict(info) for info in status["running"]]
    payload["expired"] = [asdict(info) for info in status["expired"]]
    return payload


def format_status(status: dict, *, summary: str = "") -> str:
    """Render one :func:`fleet_status` snapshot as plain text."""
    lines = [
        f"chunks: {status['complete']}/{status['chunks']} complete, "
        f"{len(status['running'])} running, {status['pending']} unclaimed"
        + (
            f", {len(status['expired'])} expired lease(s) awaiting reclaim"
            if status["expired"]
            else ""
        )
    ]
    for info in status["running"]:
        lines.append(
            f"  {info.chunk_id}  held by {info.worker} "
            f"(heartbeat {info.age_s:.1f}s ago)"
        )
    for info in status["expired"]:
        lines.append(
            f"  {info.chunk_id}  EXPIRED lease of {info.worker} "
            f"(last heartbeat {info.age_s:.1f}s ago)"
        )
    if summary:
        lines.append(f"  {summary}")
    return "\n".join(lines)
