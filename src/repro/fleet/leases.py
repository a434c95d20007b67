"""Atomic lease files with a TTL: the fleet's chunk-claim protocol.

A lease is ownership of one chunk id, materialised as a file in the store's
``leases/`` directory.  The protocol rests on POSIX guarantees that hold on
local filesystems and on NFS:

* exclusive creation goes through **write-tmp / ``os.link``** — not
  ``O_CREAT | O_EXCL``, which ancient NFS servers do not implement
  atomically and which cannot distinguish "the create was applied but the
  reply was lost" (an NFS retransmit artifact) from "someone else holds it".
  After ``os.link`` raises, ``os.stat(tmp).st_nlink == 2`` proves the link
  *did* land and the caller owns the lease after all — the classic NFS
  lockfile technique.  Exactly one worker ever owns a given lease file.
  The temp file is **not fsynced**: a claim prevents duplicated work, not
  wrong results.  A host that crashes after the link may leave an empty
  or truncated lease file behind; nobody owns such a file (:meth:`Lease.owned`
  and :meth:`LeaseManager.active` treat unreadable content as foreign), and
  it expires on its TTL like any dead worker's lease, whatever bytes it
  holds.  The durable step is the chunk publish, which keeps its fsync and
  its directory fsync;
* ``os.utime`` updates the file's mtime — **heartbeats are cheap**, one
  syscall per refresh, and any observer can judge liveness from ``stat``;
* ``os.replace``/``os.unlink`` are atomic — releases and reclaims never
  expose half-states.

Expiry is judged two ways, and either suffices:

* **wall-clock**: mtime older than ``ttl + clock_skew``.  With the default
  ``clock_skew=0`` this is the PR-5 behaviour; on a fleet spanning hosts
  whose clocks disagree, set ``clock_skew`` to the worst plausible offset so
  a fast-clocked observer cannot steal a live lease;
* **observation**: the manager remembers the first time (on its own
  *monotonic* clock) it saw each lease's current mtime.  A lease whose
  mtime has not moved for a full TTL of local observation is expired no
  matter what the file server's clock says — heartbeats change the mtime,
  so a live lease always resets the watch.  This path needs no clock
  agreement at all.

A lease whose TTL lapsed belongs to a worker presumed dead (killed, wedged,
unplugged).  Reclaiming it safely needs care: two workers that both notice
the expiry must not both tear it down and then both think they cleared the
way.  The reclaim therefore goes through a second exclusively created file,
the *reclaim guard*: only the guard's creator may unlink the stale lease
(re-checking staleness under the guard first), and after the guard is
dropped every worker races the ordinary exclusive claim again — exactly one
wins.  A guard whose own mtime exceeds the TTL marks a reclaimer that
crashed mid-reclaim and is removed the same way.

What the TTL can and cannot promise: a worker that is merely *stalled*
longer than the TTL (not dead) loses its lease to a reclaimer and may still
be computing.  Its heartbeat detects the theft (the lease file's token no
longer matches) and the driver then discards the stale worker's result
instead of publishing it — and even in the worst interleaving, chunk
results are deterministic and published by atomic rename, so a double
*computation* can never produce divergent on-disk bytes.  Choose the TTL
an order of magnitude above the heartbeat interval (the driver defaults to
``ttl / 4``) and above worst-case scheduler/NFS hiccups.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["LeaseInfo", "Lease", "LeaseManager", "Heartbeat"]


@dataclass(frozen=True)
class LeaseInfo:
    """Snapshot of one lease file (the ``--watch`` view)."""

    chunk_id: str
    worker: str
    pid: int
    host: str
    age_s: float
    expired: bool


class Lease:
    """An acquired lease: refresh it, verify it, release it.

    ``token`` is a per-acquisition UUID written into the file; it is what
    distinguishes *our* lease from a successor created after a reclaim, so
    a stalled worker can detect that it lost ownership instead of publishing
    over a reclaimer's work.
    """

    def __init__(self, path: Path, chunk_id: str, token: str, worker: str):
        self.path = path
        self.chunk_id = chunk_id
        self.token = token
        self.worker = worker
        self.lost = False

    def owned(self) -> bool:
        """Re-read the lease file: is it still ours?

        False once the file vanished or carries another worker's token
        (both mean the TTL expired and someone reclaimed the chunk).
        """
        if self.lost:
            return False
        try:
            record = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.lost = True
            return False
        if record.get("token") != self.token:
            self.lost = True
            return False
        return True

    def refresh(self) -> bool:
        """Heartbeat: bump the lease mtime; False when ownership was lost."""
        if not self.owned():
            return False
        try:
            os.utime(self.path, None)
        except OSError:
            self.lost = True
            return False
        return True

    def release(self) -> None:
        """Drop the lease (only when still ours — never a successor's)."""
        if not self.owned():
            return
        try:
            os.unlink(self.path)
        except OSError:
            pass


class LeaseManager:
    """Claim, inspect and reclaim the leases of one store directory.

    All cooperating fleet workers must use the same ``ttl`` — the TTL is a
    *protocol constant* of the out-dir, not a per-worker preference: a
    worker judging expiry with a shorter TTL than the owners' heartbeat
    budget would steal live leases.

    ``clock``/``monotonic`` are injectable for tests (the chaos suite runs
    hundreds of full lease lifecycles on a fake clock without sleeping);
    ``clock_skew`` widens the wall-clock expiry margin for fleets whose
    hosts' clocks disagree (see the module docstring).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        ttl: float,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.monotonic,
        clock_skew: float = 0.0,
    ):
        if ttl <= 0:
            raise ValueError("ttl must be positive (seconds)")
        if clock_skew < 0:
            raise ValueError("clock_skew must be >= 0 (seconds)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.ttl = float(ttl)
        self.clock_skew = float(clock_skew)
        self._clock = clock
        self._monotonic = monotonic
        #: path -> (mtime_ns, monotonic instant we first saw that mtime)
        self._watch: dict[Path, tuple[int, float]] = {}

    # ------------------------------------------------------------- helpers
    def path_for(self, chunk_id: str) -> Path:
        return self.directory / f"{chunk_id}.lease"

    def _age(self, path: Path) -> float | None:
        """Seconds since the file's last heartbeat, or None when gone."""
        try:
            return max(0.0, self._clock() - path.stat().st_mtime)
        except OSError:
            return None

    def is_expired(self, path: Path) -> bool:
        """Has this lease gone a full TTL without a heartbeat?

        Wall-clock first (fast, exact when clocks agree), then the
        skew-proof observation path: an mtime we have watched sit unchanged
        for a TTL of *local monotonic* time is dead regardless of what any
        other host's clock claims.
        """
        try:
            mtime_ns = path.stat().st_mtime_ns
        except OSError:
            self._watch.pop(path, None)
            return False
        age = max(0.0, self._clock() - mtime_ns / 1e9)
        if age > self.ttl + self.clock_skew:
            return True
        now = self._monotonic()
        seen = self._watch.get(path)
        if seen is None or seen[0] != mtime_ns:
            self._watch[path] = (mtime_ns, now)
            return False
        return now - seen[1] > self.ttl

    # ------------------------------------------------------------ claiming
    def try_acquire(self, chunk_id: str, *, worker: str) -> Lease | None:
        """One attempt to claim ``chunk_id``; None when someone holds it.

        Never blocks: a live foreign lease returns None immediately, an
        expired one is broken (via the reclaim guard) and the claim retried
        once — losing that race also returns None, and the driver simply
        moves on to the next chunk.
        """
        path = self.path_for(chunk_id)
        for attempt in range(2):
            lease = self._create(path, chunk_id, worker)
            if lease is not None:
                self._watch.pop(path, None)
                return lease
            if attempt == 0 and self.is_expired(path) and not self._break(path):
                return None
            if attempt == 0 and path.exists() and not self.is_expired(path):
                return None
        return None

    def _exclusive_create(self, path: Path, payload: bytes) -> bool:
        """Atomically create ``path`` with ``payload``; False when it exists.

        Write-tmp / ``os.link`` instead of ``O_EXCL`` — NFS-safe, and the
        ``st_nlink == 2`` re-check converts an applied-but-errored link
        (lost NFS reply) into the success it actually was.  No fsync: a
        crash can leave the file empty or truncated, which reads as owned
        by nobody and expires on the TTL (see the module docstring).
        """
        tmp = path.parent / f".tmp-{os.getpid()}-{uuid.uuid4().hex}"
        linked = False
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_WRONLY, 0o644)
            try:
                view = memoryview(payload)
                while view:
                    view = view[os.write(fd, view) :]
            finally:
                os.close(fd)
            try:
                os.link(tmp, path)
                linked = True
            except OSError:
                try:
                    linked = os.stat(tmp).st_nlink == 2
                except OSError:
                    linked = False
        except OSError:
            linked = False
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return linked

    def _create(self, path: Path, chunk_id: str, worker: str) -> Lease | None:
        token = uuid.uuid4().hex
        record = {
            "chunk": chunk_id,
            "worker": worker,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "token": token,
            "acquired_unix": self._clock(),
        }
        payload = (json.dumps(record) + "\n").encode()
        if not self._exclusive_create(path, payload):
            return None
        return Lease(path, chunk_id, token, worker)

    def _break(self, path: Path) -> bool:
        """Tear down an expired lease; True when the caller cleared it.

        Exactly one contender wins the exclusive creation of the reclaim
        guard; that winner re-checks the expiry *under the guard* (the owner
        may have heartbeat in between) and only then unlinks the lease.  A
        guard left behind by a crashed reclaimer expires on the same TTL.
        """
        guard = path.with_suffix(".reclaim")
        if not self._exclusive_create(guard, b"reclaim\n"):
            if self.is_expired(guard):  # reclaimer died mid-reclaim
                try:
                    os.unlink(guard)
                except OSError:
                    pass
            return False
        try:
            if not self.is_expired(path):
                return False
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            self._watch.pop(path, None)
            return True
        finally:
            try:
                os.unlink(guard)
            except OSError:
                pass
            self._watch.pop(guard, None)

    # ---------------------------------------------------------- inspection
    def active(self) -> list[LeaseInfo]:
        """Snapshot every lease file (live and expired), oldest first."""
        infos = []
        for path in sorted(self.directory.glob("*.lease")):
            age = self._age(path)
            if age is None:
                continue  # released between glob and stat
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                record = {}
            infos.append(
                LeaseInfo(
                    chunk_id=record.get("chunk", path.stem),
                    worker=str(record.get("worker", "?")),
                    pid=int(record.get("pid", -1)),
                    host=str(record.get("host", "?")),
                    age_s=age,
                    expired=age > self.ttl + self.clock_skew,
                )
            )
        infos.sort(key=lambda info: -info.age_s)
        return infos


class Heartbeat:
    """Background thread refreshing the held lease every ``interval`` seconds.

    The driver starts one per :func:`~repro.fleet.driver.run_fleet` call and
    hands it each chunk's lease with :meth:`hold` while the chunk computes:
    the worker's main thread is busy simulating/searching, the heartbeat keeps
    the lease's mtime young so other workers do not reclaim it.  A refresh
    that reports lost ownership drops the lease (its ``lost`` flag then
    tells the driver not to publish); the thread keeps serving the next one.
    :meth:`hold` and the refresh run under one lock, so once ``hold(None)``
    returns the thread never touches the lease again — the driver may
    verify, publish and release it.

    The thread is a daemon and :meth:`stop` joins it with a bounded timeout
    — stopping never waits long on a refresh wedged in a dead filesystem,
    and the thread cannot keep a lease looking fresh after the process
    should be dead.  (:meth:`hold` does wait for a refresh in progress:
    that wait is what keeps a released lease untouched.)
    """

    def __init__(self, lease: Lease | None, interval: float):
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive (seconds)")
        self.lease = lease
        self.interval = float(interval)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fleet-heartbeat", daemon=True
        )

    def hold(self, lease: Lease | None) -> None:
        """Refresh ``lease`` from now on (None: refresh nothing)."""
        with self._lock:
            self.lease = lease

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                if self.lease is None:
                    continue
                try:
                    alive = self.lease.refresh()
                except Exception:
                    # A refresh can only fail by marking the lease lost;
                    # anything else (injected fault surfacing oddly,
                    # interpreter teardown) stops this lease's heartbeat and
                    # lets the driver's owned() check decide.
                    alive = False
                if not alive:
                    self.lease = None

    def start(self) -> "Heartbeat":
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the thread and join it, waiting at most ``timeout``.

        The bounded join means a heartbeat wedged inside a dead NFS mount
        cannot hang the worker's cleanup; the thread is a daemon, so it
        also cannot outlive the process.
        """
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout)

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
