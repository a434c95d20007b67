"""Deterministic fault injection for the fleet/store/serve filesystem seams.

The chaos harness answers the question the robustness acceptance criteria
pose: *under torn writes, lost renames, stale reads, swallowed heartbeats
and disagreeing clocks, does the system still converge to byte-identical
results with zero double-claims?*  It has three pieces:

* :class:`~repro.chaos.schedule.ChaosSchedule` — seeded, order-independent
  decisions (the ``k``-th op on a file faults iff a pure hash of
  ``(seed, op, name, k)`` says so), so every failure replays exactly and a
  finite ``max_faults`` budget guarantees retry loops terminate;
* :class:`~repro.chaos.injector.ChaosInjector` — a context manager that
  monkeypatches ``os.open/write/fsync/replace/rename/link/unlink/utime``
  and ``builtins.open``/``io.open`` for paths under chosen roots, raising
  :class:`~repro.chaos.injector.ChaosFault` (a real-errno ``OSError``) or
  applying the nastier NFS artifacts: half-applied writes, operations that
  succeed but report failure, operations that report success but never
  happened;
* :class:`~repro.chaos.injector.ChaosClock` — an injectable
  ``time``/``monotonic`` pair (with wall-clock skew) that drives lease TTL
  machinery through simulated hours in milliseconds.

``tests/test_chaos.py`` runs the store, resume and lease protocols
across hundreds of seeded schedules (the bulk behind ``--run-chaos``; see
docs/chaos.md).
"""

from repro.chaos.injector import ChaosClock, ChaosFault, ChaosInjector
from repro.chaos.schedule import (
    DEFAULT_KINDS,
    DEFAULT_RATES,
    ChaosSchedule,
    FaultEvent,
)

__all__ = [
    "ChaosClock",
    "ChaosFault",
    "ChaosInjector",
    "ChaosSchedule",
    "FaultEvent",
    "DEFAULT_KINDS",
    "DEFAULT_RATES",
]
