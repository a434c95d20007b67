"""Lease-based fleet driver: auto-assigned sweep/sim chunks on a shared dir.

This is the one way to fill a chunk store.  Work is assigned
**dynamically**, in the work-stealing spirit of the Bobpp framework
(PAPERS.md): any number of worker processes — same host, or many hosts on a
shared filesystem — point at one ``--out-dir`` and claim chunks through
atomic lease files with a TTL.  No worker is told an index, a crashed
worker's chunks are reclaimed, and a fast worker never idles while a slow
one grinds.  One worker is the serial run; N local workers on one out-dir
are the parallel run; relaunching a worker resumes (published chunks are
always skipped).

* :mod:`repro.fleet.leases` — the claim protocol.  A lease is a file created
  exclusively via write-tmp/``os.link`` (the NFS-safe mutual-exclusion
  technique — see the module docstring for why not ``O_EXCL`` alone, and
  why a claim needs no fsync), refreshed by heartbeat ``mtime`` touches
  from one thread per worker, and reclaimable by any worker
  once a full TTL passes without a heartbeat — judged by wall clock with a
  configurable skew margin *or* by local monotonic observation, so fleets
  spanning hosts with disagreeing clocks stay safe.
* :mod:`repro.fleet.driver` — :class:`~repro.fleet.driver.FleetJob` adapts a
  chunk backend (the degree–diameter sweep of :mod:`repro.otis.sweep`, the
  replica simulation of :mod:`repro.simulation.sharding`) to one claim →
  run → publish → release loop, :func:`~repro.fleet.driver.run_fleet`; a
  worker holds at most one lease at a time.
* :mod:`repro.fleet.status` — live progress/heartbeat snapshots over a store
  (who holds what, for how long, how much is done), the ``--watch`` view.

The CLI front-end is ``python -m repro fleet sweep ...`` / ``fleet sim ...``
(plus ``fleet --smoke``, a seconds-long end-to-end exercise of the whole
claim → run → reclaim → merge cycle).  Merges are byte-identical to the
serial paths — the leases only decide *who* runs a chunk, never what it
computes.
"""

from repro.fleet.driver import (
    DEFAULT_HEARTBEAT_FRACTION,
    DEFAULT_TTL,
    FleetJob,
    FleetTerminated,
    SimFleetJob,
    SweepFleetJob,
    run_fleet,
)
from repro.fleet.leases import Heartbeat, Lease, LeaseInfo, LeaseManager
from repro.fleet.status import (
    fleet_status,
    format_status,
    status_to_json,
    store_status,
)

__all__ = [
    "DEFAULT_HEARTBEAT_FRACTION",
    "DEFAULT_TTL",
    "FleetJob",
    "FleetTerminated",
    "SweepFleetJob",
    "SimFleetJob",
    "run_fleet",
    "Heartbeat",
    "Lease",
    "LeaseInfo",
    "LeaseManager",
    "fleet_status",
    "format_status",
    "status_to_json",
    "store_status",
]
