"""A minimal discrete-event simulation engine.

The network model of :mod:`repro.simulation.network` needs nothing more than
a time-ordered event queue with deterministic tie-breaking and a simulator
loop with a stop condition.  Implementing it here (rather than pulling in an
external DES framework) keeps the library self-contained and the behaviour
reproducible bit-for-bit across runs: events with equal timestamps are
processed in insertion order.

Two queue flavours are provided:

* :class:`EventQueue` / :class:`Simulator` — the classic heap of callback
  events, one ``action()`` per pop; this drives the reference event-at-a-time
  :class:`repro.simulation.network.NetworkSimulator`.
* :class:`BatchEventQueue` — an array-pooled queue for the batched engine
  (:class:`repro.simulation.network.BatchedNetworkSimulator`): every slot
  holds at most one pending event and :meth:`BatchEventQueue.pop_batch`
  extracts *all* events sharing the minimum timestamp in one call, ordered by
  the same ``(time, insertion sequence)`` rule as the heap, so both engines
  process simultaneous events identically.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Event", "EventQueue", "Simulator", "BatchEventQueue"]


@dataclass(order=True)
class Event:
    """One scheduled event.

    Events are ordered by ``(time, sequence)`` so that simultaneous events
    fire in the order they were scheduled — important for reproducibility.

    Attributes
    ----------
    time:
        Simulation time at which the event fires.
    sequence:
        Monotonic insertion counter (assigned by the queue).
    action:
        Zero-argument callable executed when the event fires.
    """

    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)


class EventQueue:
    """A priority queue of :class:`Event` objects.

    The heap holds ``(time, sequence, event)`` tuples: sequences are
    unique, so heap comparisons stop at the first two fields and run in C
    instead of the generated ``Event.__lt__``.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run at ``time``; returns the event object."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time=float(time), sequence=next(self._counter), action=action)
        heapq.heappush(self._heap, (event.time, event.sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> float | None:
        """Time of the earliest event, or None when empty."""
        return self._heap[0][0] if self._heap else None


class BatchEventQueue:
    """An event queue with batched minimum-time extraction.

    The queue owns ``capacity`` slots (one per simulated message: a message
    never has more than one pending event).  Internally, slots are bucketed
    by their *exact* fire time — float timestamps computed identically
    compare equal bit-for-bit, which is precisely the reference simulator's
    notion of "simultaneous" — and a heap of the distinct times yields the
    next batch without scanning all slots.  Each slot is stamped with a
    monotonically increasing sequence number at scheduling time;
    :meth:`pop_batch` removes *every* slot whose time equals the current
    minimum and returns the slot indices sorted by sequence — exactly the
    order in which :class:`EventQueue` would have popped them one at a time.

    Parameters
    ----------
    capacity:
        Number of slots (events are addressed by slot index ``0 .. capacity-1``).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._pending = np.zeros(capacity, dtype=bool)
        # One bucket (python list of slots, in insertion order) per *distinct*
        # pending fire time; the heap holds each distinct time exactly once,
        # for as long as its bucket exists.  Insertion order within a bucket
        # is sequence order, so popping a whole bucket reproduces the order a
        # heap of individual events would produce.
        self._buckets: dict[float, list[int]] = {}
        self._heap: list[float] = []
        self._count = 0
        self._capacity = int(capacity)

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Number of slots."""
        return self._capacity

    def schedule(self, indices: np.ndarray, times: np.ndarray) -> None:
        """Schedule one event per slot in ``indices`` at the given ``times``.

        Sequence order is the order the indices appear, which is how a heap
        of individual events would order simultaneous pushes.  Slots must
        currently be empty (each message has at most one pending event).
        """
        indices = np.asarray(indices, dtype=np.int64)
        times = np.asarray(times, dtype=float)
        if indices.size == 0:
            return
        if times.shape != indices.shape:
            raise ValueError("indices and times must have the same length")
        if np.any(times < 0):
            raise ValueError("event time must be non-negative")
        if self._pending[indices].any() or np.unique(indices).size != indices.size:
            raise ValueError("slot already holds a pending event")
        self._pending[indices] = True
        self._count += indices.size
        order = np.argsort(times, kind="stable")
        sorted_times = times[order]
        sorted_indices = indices[order]
        cuts = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_times)) + 1, [sorted_times.size])
        ).tolist()
        heads = sorted_times[cuts[:-1]].tolist()
        slots = sorted_indices.tolist()
        buckets = self._buckets
        heap = self._heap
        for k, time in enumerate(heads):
            segment = slots[cuts[k] : cuts[k + 1]]
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = segment
                heapq.heappush(heap, time)
            else:
                bucket.extend(segment)

    def schedule_one(self, index: int, time: float) -> None:
        """Scalar :meth:`schedule` for single events (no array round-trips)."""
        time = float(time)
        if time < 0:
            raise ValueError("event time must be non-negative")
        if self._pending[index]:
            raise ValueError("slot already holds a pending event")
        self._pending[index] = True
        self._count += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [index]
            heapq.heappush(self._heap, time)
        else:
            bucket.append(index)

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or None when empty."""
        if self._count == 0:
            return None
        return self._heap[0]

    def pop_batch(self, limit: int | None = None) -> tuple[float, list[int]]:
        """Remove and return all events sharing the minimum time.

        Returns ``(time, slots)`` with the slot indices in insertion-sequence
        order.  With ``limit`` set, only the ``limit`` lowest-sequence events
        of the batch are removed (the rest stay pending) — this is how the
        batched simulator honours ``max_events`` mid-batch, matching the
        one-event-at-a-time reference loop.
        """
        if self._count == 0:
            raise IndexError("pop from an empty event queue")
        time = heapq.heappop(self._heap)
        slots = self._buckets.pop(time)
        if limit is not None and len(slots) > limit:
            self._buckets[time] = slots[limit:]
            slots = slots[:limit]
            heapq.heappush(self._heap, time)
        if len(slots) == 1:
            self._pending[slots[0]] = False
        else:
            self._pending[np.asarray(slots, dtype=np.int64)] = False
        self._count -= len(slots)
        return time, slots


class Simulator:
    """The simulation main loop.

    Attributes
    ----------
    now:
        Current simulation time (advances monotonically).
    events_processed:
        Number of events executed so far.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.queue.push(self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute time (not before the current time)."""
        if time < self.now:
            raise ValueError("cannot schedule an event in the past")
        return self.queue.push(time, action)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until the queue empties (or a limit is hit).

        Parameters
        ----------
        until:
            Optional horizon; events scheduled after it are left unprocessed.
        max_events:
            Optional cap on the number of events to execute (a safeguard for
            the property-based tests that feed adversarial workloads).

        Returns
        -------
        float
            The simulation time after the last processed event.
        """
        while len(self.queue):
            next_time = self.queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                break
            if max_events is not None and self.events_processed >= max_events:
                break
            event = self.queue.pop()
            self.now = event.time
            self.events_processed += 1
            event.action()
        return self.now
