"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start, end, parent span and the
run id.  Spans are appended to per-thread column buffers (no lock on the hot
path; the server's event-loop and executor threads record their own) and stay
in memory until the run ends, when :meth:`SpanRecorder.summary` derives the
per-name counts, inclusive times and self times, and :meth:`SpanRecorder.dump`
optionally writes them out as JSON lines.

Self time across threads.  A span's self time is the part of its interval
that its child spans do not cover.  When several threads are inside spans at
the same moment, that moment is split evenly between their innermost spans,
so the self times of all spans add up to exactly the time during which any
span was open, and ``wall - covered`` is the time no layer accounts for.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from contextlib import nullcontext

import numpy as np

_NULL = nullcontext()


class _ThreadBuffer:
    __slots__ = ("thread", "names", "parents", "starts", "ends", "stack", "counters")

    def __init__(self, thread: int):
        self.thread = thread
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}


class _Span:
    __slots__ = ("_recorder", "_name_id", "_index")

    def __init__(self, recorder: "SpanRecorder", name_id: int):
        self._recorder = recorder
        self._name_id = name_id

    def __enter__(self):
        self._index = self._recorder.enter(self._name_id)
        return self

    def __exit__(self, *exc_info):
        self._recorder.exit(self._index)
        return False


class SpanRecorder:
    """Records spans and counters while :attr:`enabled` is true."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.enabled = False
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self._name_ids: dict[str, int] = {}
        self._names: list[str] = []
        self._windows: list[tuple[float, float]] = []
        self._window_start: float | None = None

    # ------------------------------------------------------------ recording
    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            return nid

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def enter(self, name_id: int) -> int:
        buf = self._buffer()
        index = len(buf.starts)
        buf.names.append(name_id)
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        buf.ends.append(0.0)
        buf.stack.append(index)
        buf.starts.append(self._clock())
        return index

    def exit(self, index: int) -> None:
        end = self._clock()
        buf = self._local.buf
        buf.ends[index] = end
        buf.stack.pop()

    def span(self, name: str):
        """Context manager recording one span (a no-op while disabled)."""
        if not self.enabled:
            return _NULL
        return _Span(self, self.name_id(name))

    def add(self, counter: str, value: float = 1.0) -> None:
        """Add to a named counter (ignored while disabled)."""
        if not self.enabled:
            return
        counters = self._buffer().counters
        counters[counter] = counters.get(counter, 0.0) + value

    def start_window(self) -> None:
        self._window_start = self._clock()
        self.enabled = True

    def stop_window(self) -> None:
        self.enabled = False
        if self._window_start is not None:
            self._windows.append((self._window_start, self._clock()))
            self._window_start = None

    # ------------------------------------------------------------- analysis
    def _columns(self):
        """All spans as flat arrays; parents rewritten to global indices."""
        names, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for tid, buf in enumerate(buffers):
            # Copies: a live buffer export would block later appends.
            count = len(buf.starts)
            local_parents = np.frombuffer(buf.parents, dtype=np.int64)[:count].copy()
            names.append(np.frombuffer(buf.names, dtype=np.int32)[:count].copy())
            parents.append(np.where(local_parents < 0, -1, local_parents + offset))
            starts.append(np.frombuffer(buf.starts, dtype=np.float64)[:count].copy())
            ends.append(np.frombuffer(buf.ends, dtype=np.float64)[:count].copy())
            threads.append(np.full(count, tid, dtype=np.int64))
            offset += count
        if not names:
            empty = np.zeros(0)
            return (empty.astype(np.int32), empty.astype(np.int64), empty, empty,
                    empty.astype(np.int64))
        return (np.concatenate(names), np.concatenate(parents),
                np.concatenate(starts), np.concatenate(ends),
                np.concatenate(threads))

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for key, value in buf.counters.items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def wall_s(self) -> float:
        return sum(end - start for start, end in self._windows)

    def summary(self) -> dict:
        """Per-name ``calls``/``s``/``self_s`` plus ``covered_s`` and ``wall_s``.

        ``s`` is inclusive (the span's own duration); ``self_s`` excludes
        child spans and shares concurrent time between threads (see the
        module docstring), so ``sum(self_s) == covered_s``.
        """
        names, parents, starts, ends, _threads = self._columns()
        durations = ends - starts
        top = parents < 0
        if names.size:
            top_starts = np.sort(starts[top])
            top_ends = np.sort(ends[top])
            points = np.unique(np.concatenate([top_starts, top_ends]))
            active = (np.searchsorted(top_starts, points, side="right")
                      - np.searchsorted(top_ends, points, side="right"))
            weight = np.where(active[:-1] > 0, 1.0 / np.maximum(active[:-1], 1), 0.0)
            cumulative = np.concatenate([[0.0], np.cumsum(np.diff(points) * weight)])
            share = np.interp(ends, points, cumulative) - np.interp(starts, points, cumulative)
            child_share = np.zeros(names.size)
            has_parent = ~top
            np.add.at(child_share, parents[has_parent], share[has_parent])
            self_time = share - child_share
            covered = float(share[top].sum())
        else:
            self_time = durations
            covered = 0.0
        result: dict[str, dict] = {}
        for nid, name in enumerate(self._names):
            mask = names == nid
            result[name] = {
                "calls": int(mask.sum()),
                "s": float(durations[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return {"spans": result, "covered_s": covered, "wall_s": self.wall_s()}

    def dump(self, path, extra: dict | None = None) -> int:
        """Write every span as one JSON line (a header line first); returns count."""
        names, parents, starts, ends, threads = self._columns()
        with open(path, "w") as handle:
            header = {"run": self.run_id, "windows": self._windows}
            header.update(extra or {})
            handle.write(json.dumps(header) + "\n")
            for index in range(names.size):
                handle.write(json.dumps({
                    "run": self.run_id,
                    "id": index,
                    "name": self._names[names[index]],
                    "start": float(starts[index]),
                    "end": float(ends[index]),
                    "parent": int(parents[index]),
                    "thread": int(threads[index]),
                }) + "\n")
        return int(names.size)
