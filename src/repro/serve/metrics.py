"""Serve-side metrics: counters, queries/sec and latency histograms.

Everything is allocation-light and thread-safe (one lock per metrics
object): the server records one sample per request from executor threads
while ``/stats`` snapshots from the event loop.

Latencies go into a fixed log-spaced histogram (:class:`LatencyHistogram`),
so percentiles are bucket upper bounds — a deliberately cheap estimator
whose error is bounded by the bucket ratio (~26% with the default 48 buckets
spanning 1 µs .. 100 s).  That is plenty for tail-latency regression
tracking, and it never stores per-request samples.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["LatencyHistogram", "EndpointMetrics", "ServeMetrics"]

#: Cap on distinct endpoint labels — requests beyond it aggregate under
#: ``"__other__"`` so an attacker (or a typo'd load generator) sending
#: unbounded distinct op names cannot grow the metrics dict without limit.
MAX_ENDPOINTS = 64

#: Cap on the sliding-window qps samples.  At the default 10 s window this
#: still resolves ~400 samples/s; beyond it old samples are evicted early,
#: which can only *under*-count qps — memory stays bounded no matter the
#: request rate or the process uptime.
MAX_RECENT = 4096


class LatencyHistogram:
    """Fixed log-spaced latency histogram with percentile estimates."""

    def __init__(
        self, *, min_s: float = 1e-6, max_s: float = 100.0, buckets: int = 48
    ):
        if buckets < 2 or not 0 < min_s < max_s:
            raise ValueError("need buckets >= 2 and 0 < min_s < max_s")
        ratio = (max_s / min_s) ** (1.0 / (buckets - 1))
        self.bounds = [min_s * ratio**i for i in range(buckets)]
        self.counts = [0] * (buckets + 1)  # +1: overflow bucket
        self.total = 0
        self.sum_s = 0.0

    def record(self, seconds: float) -> None:
        # Binary search beats a linear scan at 48 buckets; inline bisect.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.bounds[mid] < seconds:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.total += 1
        self.sum_s += seconds

    def percentile(self, p: float) -> float | None:
        """Upper bound of the bucket holding the ``p``-th percentile sample."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.total == 0:
            return None
        rank = max(1, int(p / 100.0 * self.total + 0.5))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return float("inf")  # overflow bucket
        return self.bounds[-1]  # pragma: no cover - rank <= total

    def mean(self) -> float | None:
        return self.sum_s / self.total if self.total else None


class EndpointMetrics:
    """Counters + latency histogram of one endpoint/op."""

    def __init__(self):
        self.requests = 0
        self.queries = 0
        self.errors = 0
        self.latency = LatencyHistogram()

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "queries": self.queries,
            "errors": self.errors,
            "latency_mean_s": self.latency.mean(),
            "latency_p50_s": self.latency.percentile(50),
            "latency_p95_s": self.latency.percentile(95),
            "latency_p99_s": self.latency.percentile(99),
        }


class ServeMetrics:
    """All metrics of one server process (the ``/stats`` payload)."""

    def __init__(self, *, window_s: float = 10.0, clock=time.monotonic):
        self._lock = threading.Lock()
        self._clock = clock
        self._window_s = float(window_s)
        self._started = clock()
        self._endpoints: dict[str, EndpointMetrics] = {}
        self._recent: deque[tuple[float, int]] = deque(maxlen=MAX_RECENT)
        self.batches = 0  # micro-batched router calls
        self.coalesced_requests = 0  # requests that shared a batch
        self.max_batch_pairs = 0
        self.shed = 0  # requests rejected by backpressure (429)
        self.deadline_exceeded = 0  # requests cancelled at their deadline
        #: Requests refused before dispatch, by status code (see the
        #: framing rules in :mod:`repro.serve.server`).
        self.framing_errors = {"400": 0, "413": 0, "431": 0}

    def record(
        self, endpoint: str, *, queries: int, seconds: float, error: bool = False
    ) -> None:
        """One completed request: its endpoint/op, batch size and latency."""
        now = self._clock()
        with self._lock:
            metrics = self._endpoints.get(endpoint)
            if metrics is None:
                if len(self._endpoints) >= MAX_ENDPOINTS:
                    endpoint = "__other__"
                metrics = self._endpoints.setdefault(endpoint, EndpointMetrics())
            metrics.requests += 1
            metrics.queries += queries
            if error:
                metrics.errors += 1
            metrics.latency.record(seconds)
            self._recent.append((now, queries))
            horizon = now - self._window_s
            while self._recent and self._recent[0][0] < horizon:
                self._recent.popleft()

    def record_shed(self) -> None:
        """One request rejected with 429 by the in-flight limit."""
        with self._lock:
            self.shed += 1

    def record_deadline(self) -> None:
        """One request cancelled because it overran its deadline."""
        with self._lock:
            self.deadline_exceeded += 1

    def record_framing_error(self, status: str) -> None:
        """One request refused for its framing (``status`` is the reply line)."""
        with self._lock:
            self.framing_errors[status.split()[0]] += 1

    def record_batch(self, *, requests: int, pairs: int) -> None:
        """One coalesced router call of the micro-batcher."""
        with self._lock:
            self.batches += 1
            if requests > 1:
                self.coalesced_requests += requests
            self.max_batch_pairs = max(self.max_batch_pairs, pairs)

    def queries_per_second(self) -> float:
        """Queries/sec over the sliding window (0 when idle)."""
        now = self._clock()
        with self._lock:
            horizon = now - self._window_s
            total = sum(q for t, q in self._recent if t >= horizon)
        return total / self._window_s

    def snapshot(self) -> dict:
        now = self._clock()
        qps = self.queries_per_second()
        with self._lock:
            endpoints = {
                name: metrics.snapshot()
                for name, metrics in sorted(self._endpoints.items())
            }
            return {
                "uptime_s": now - self._started,
                "queries_per_second": qps,
                "endpoints": endpoints,
                "batching": {
                    "batches": self.batches,
                    "coalesced_requests": self.coalesced_requests,
                    "max_batch_pairs": self.max_batch_pairs,
                },
                "backpressure": {
                    "shed": self.shed,
                    "deadline_exceeded": self.deadline_exceeded,
                },
                "framing_errors": dict(self.framing_errors),
            }
