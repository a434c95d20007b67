"""Serve robustness suite: backpressure, deadlines, drain, reload degrade.

What PR 9 added to the serve layer, pinned down end to end:

* **admission control** — at ``max_inflight`` concurrent queries the server
  sheds with ``429 + Retry-After`` instead of queueing without bound, and
  the control plane (``/healthz``, ``/stats``) stays green throughout;
* **deadlines** — a query slower than ``request_timeout_s`` is cancelled
  and answered ``503``, with the cancellation counted in ``/stats``;
* **router failures** — a router call that raises answers each request of
  its batch ``500``, counts as an error in ``/stats``, and keeps the
  connection open for the next request;
* **drain** — a draining server answers queries and health checks ``503``
  (so load balancers pull it), finishes what it admitted, then stops;
* **reload degrade** — a broken spec file never tears down the last good
  registry snapshot; the failure is visible in ``/stats`` and heals itself;
* **request framing** — a malformed request line or ``Content-Length``
  gets ``400``, an oversized body ``413`` (before any of it is read), an
  over-long header line or more than 100 header lines ``431``; each reply
  closes the connection and is counted in ``/stats``;
* **request reads** — a hypothesis fuzz of ``_read_request`` over a
  StreamReader fed in pieces: a parsed request, a 4xx or None, never
  another exception or a body byte past the limit;
* **client backoff** — the bench client's jittered exponential backoff
  honours ``Retry-After``, converges under shedding, and de-correlates a
  herd of simultaneously shed clients (pure injected-clock math, no sleeps).

Queries are held in flight with the ``router_gate`` fixture (a router whose
``next_hops`` waits on an event in the executor), never with a timer.
"""

import asyncio
import http.client
import json
import socket
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ExponentialBackoff, RouterRegistry, ServerThread, run_bench
from repro.serve.bench import http_request
from repro.serve.metrics import MAX_ENDPOINTS, MAX_RECENT, ServeMetrics
from repro.serve.server import RouteQueryServer, _FramingError


def make_registry() -> RouterRegistry:
    registry = RouterRegistry()
    registry.add("demo", "B(2,3)")
    return registry


def raw_request(host, port, method, path, body=None, timeout=30):
    """One round trip returning ``(status, headers dict, parsed body)``."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            json.loads(response.read()),
        )
    finally:
        connection.close()


QUERY = {"op": "next-hop", "topology": "demo", "pairs": [[0, 1], [1, 2]]}


# ---------------------------------------------------------------------------
# Admission control: 429 + Retry-After, healthz stays green
# ---------------------------------------------------------------------------
class TestShedding:
    def test_overload_sheds_with_retry_after_and_healthz_stays_green(
        self, router_gate
    ):
        # The gate pins the admitted queries until every client has been
        # answered or shed, so 8 concurrent clients are a 4x overload of
        # max_inflight=2.
        registry = make_registry()
        gate = router_gate(registry.get("demo").router)
        with ServerThread(
            registry, max_inflight=2, retry_after_s=0.25
        ) as server:
            results = [None] * 8
            barrier = threading.Barrier(8)

            def one(index):
                barrier.wait()
                results[index] = raw_request(
                    server.host, server.port, "POST", "/v1/query", QUERY
                )

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            gate.wait_until(lambda: server.server.metrics.shed == 6)
            # While the first wave is pinned on the gate, the control plane
            # must still answer instantly and healthily.
            health = http_request(server.host, server.port, "GET", "/healthz")
            assert health["ok"] is True
            gate.release()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            statuses = Counter(status for status, _, _ in results)
            assert statuses[200] >= 1  # accepted work completed
            assert statuses[429] >= 1  # overload genuinely shed
            assert set(statuses) <= {200, 429}
            for status, headers, body in results:
                if status == 429:
                    assert headers["retry-after"] == "0.25"
                    assert body["retry_after_s"] == 0.25
                    assert body["ok"] is False
                else:
                    assert body["ok"] is True
            stats = http_request(server.host, server.port, "GET", "/stats")
            assert stats["backpressure"]["shed"] == statuses[429]
            assert stats["max_inflight"] == 2
            assert stats["draining"] is False

    def test_accepted_latency_stays_bounded_under_sustained_overload(
        self, router_gate
    ):
        # The point of shedding: what IS accepted completes in roughly one
        # router call (held ``window`` seconds by the closed gate), no matter
        # how much excess demand there is — rejected requests never form a
        # queue behind the admitted ones.
        window = 0.05
        registry = make_registry()
        router_gate(registry.get("demo").router, hold_s=window)
        with ServerThread(
            registry, max_inflight=1, retry_after_s=0.01
        ) as server:
            results = []  # (status, seconds) across all hammering threads
            lock = threading.Lock()

            def hammer():
                for _ in range(10):
                    start = time.perf_counter()
                    status, _, _ = raw_request(
                        server.host, server.port, "POST", "/v1/query", QUERY
                    )
                    with lock:
                        results.append((status, time.perf_counter() - start))

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            statuses = Counter(status for status, _ in results)
            assert statuses[429] >= 1  # the overload was real
            accepted = sorted(s for status, s in results if status == 200)
            assert accepted
            p99 = accepted[int(0.99 * (len(accepted) - 1))]
            assert p99 < window * 10  # bounded — not queue-length dependent


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_slow_query_is_cancelled_at_the_deadline(self, router_gate):
        # The gate holds the router call past the test, so the query
        # overruns a 50 ms deadline; the server must answer 503 promptly.
        registry = make_registry()
        router_gate(registry.get("demo").router)
        with ServerThread(registry, request_timeout_s=0.05) as server:
            start = time.perf_counter()
            status, headers, body = raw_request(
                server.host, server.port, "POST", "/v1/query", QUERY
            )
            elapsed = time.perf_counter() - start
            assert status == 503
            assert "deadline exceeded" in body["error"]
            assert "retry-after" in headers
            assert elapsed < 0.4  # answered at the deadline, not the router
            stats = http_request(server.host, server.port, "GET", "/stats")
            assert stats["backpressure"]["deadline_exceeded"] == 1


# ---------------------------------------------------------------------------
# Router failures: 500 for the batch, the connection survives
# ---------------------------------------------------------------------------
class TestRouterFailure:
    def test_router_exception_answers_500_and_keeps_the_connection(
        self, caplog
    ):
        registry = make_registry()
        router = registry.get("demo").router
        working = router.next_hops

        def broken(sources, targets):
            raise RuntimeError("router exploded")

        router.next_hops = broken
        with ServerThread(registry) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )

            def post():
                connection.request(
                    "POST",
                    "/v1/query",
                    body=json.dumps(QUERY).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                return response.status, json.loads(response.read())

            try:
                status, body = post()
                sock = connection.sock
                assert status == 500
                assert body["ok"] is False
                assert "router exploded" in body["error"]
                router.next_hops = working
                status, body = post()
                assert connection.sock is sock  # same keep-alive connection
                assert status == 200 and body["ok"] is True
            finally:
                connection.close()
            stats = http_request(server.host, server.port, "GET", "/stats")
        assert stats["endpoints"]["next-hop"]["requests"] == 2
        assert stats["endpoints"]["next-hop"]["errors"] == 1
        assert stats["batching"]["batches"] == 1  # only the good call
        assert "batch on 'demo' failed" in caplog.text  # traceback recorded


# ---------------------------------------------------------------------------
# Drain
# ---------------------------------------------------------------------------
class TestDrain:
    def test_draining_server_refuses_queries_and_reports_unhealthy(self):
        with ServerThread(make_registry()) as server:
            assert raw_request(
                server.host, server.port, "GET", "/healthz"
            )[0] == 200
            server.server._draining = True
            status, _, body = raw_request(
                server.host, server.port, "GET", "/healthz"
            )
            assert status == 503
            assert body["draining"] is True
            status, headers, body = raw_request(
                server.host, server.port, "POST", "/v1/query", QUERY
            )
            assert status == 503
            assert "draining" in body["error"]
            assert "retry-after" in headers
            # the control plane still answers while draining
            assert raw_request(server.host, server.port, "GET", "/stats")[
                2
            ]["draining"] is True
            server.server._draining = False

    def test_drain_stops_the_server(self):
        import asyncio

        server_thread = ServerThread(make_registry()).start()
        try:
            host, port = server_thread.host, server_thread.port
            assert http_request(host, port, "GET", "/healthz")["ok"]
            future = asyncio.run_coroutine_threadsafe(
                server_thread.server.drain(grace_s=1.0), server_thread._loop
            )
            future.result(timeout=10)
            with pytest.raises(OSError):
                raw_request(host, port, "GET", "/healthz", timeout=2)
        finally:
            server_thread.stop()


# ---------------------------------------------------------------------------
# Reload degrade: last-good snapshot survives a broken spec file
# ---------------------------------------------------------------------------
class TestReloadDegrade:
    def test_broken_spec_file_degrades_and_heals(self, tmp_path):
        spec = tmp_path / "topologies.json"
        spec.write_text(json.dumps({"demo": "B(2,3)"}))
        registry = RouterRegistry()
        registry.load_spec_file(spec)
        spec.write_text('{"demo": "B(2,')  # torn mid-write
        assert registry.reload(force=True) == []
        assert registry.failed_reloads == 1
        assert "ValueError" in registry.last_error or "JSON" in registry.last_error
        assert registry.get("demo").spec == "B(2,3)"  # last-good serves on
        spec.write_text(json.dumps({"demo": "B(2,4)"}))
        assert registry.reload(force=True) == ["demo"]
        assert registry.get("demo").spec == "B(2,4)"
        assert registry.last_error is None

    def test_bad_spec_never_half_commits(self, tmp_path):
        # One good entry + one broken entry in the same file: the reload
        # must commit NEITHER (transactional), not apply the good half.
        spec = tmp_path / "topologies.json"
        spec.write_text(json.dumps({"a": "B(2,3)", "b": "B(2,4)"}))
        registry = RouterRegistry()
        registry.load_spec_file(spec)
        versions = {name: registry.get(name).version for name in ("a", "b")}
        spec.write_text(json.dumps({"a": "B(2,5)", "b": "X(9,9)"}))
        assert registry.reload(force=True) == []
        assert registry.get("a").spec == "B(2,3)"
        assert registry.get("a").version == versions["a"]
        assert registry.get("b").version == versions["b"]

    def test_stats_and_reload_endpoint_surface_failures(self, tmp_path):
        spec = tmp_path / "topologies.json"
        spec.write_text(json.dumps({"demo": "B(2,3)"}))
        registry = RouterRegistry()
        registry.load_spec_file(spec)
        with ServerThread(registry, reload_interval_s=0) as server:
            spec.write_text("not json at all")
            status, _, body = raw_request(
                server.host, server.port, "POST", "/reload"
            )
            assert status == 500
            assert "reload failed" in body["error"]
            # the strict endpoint failed loudly; the degrade path records it
            registry.reload(force=True)
            stats = http_request(server.host, server.port, "GET", "/stats")
            assert stats["reload"]["failed_reloads"] >= 1
            assert stats["reload"]["last_error"]
            # and the data plane never blinked
            reply = http_request(
                server.host, server.port, "POST", "/v1/query", QUERY
            )
            assert reply["ok"] is True


# ---------------------------------------------------------------------------
# Bench client: Retry-After + jittered backoff convergence
# ---------------------------------------------------------------------------
class TestBenchRetry:
    def test_bench_converges_against_a_shedding_server(self, router_gate):
        # Each router call is held 10 ms, so 4 connections overrun the cap.
        registry = make_registry()
        router_gate(registry.get("demo").router, hold_s=0.01)
        with ServerThread(
            registry, max_inflight=1, retry_after_s=0.01
        ) as server:
            result = run_bench(
                server.host,
                server.port,
                topology="demo",
                messages=1024,
                batch_pairs=64,
                connections=4,
                seed=3,
            )
        assert result.queries == 1024
        assert result.requests == 1024 // 64  # every batch finally accepted
        assert result.retries > 0  # shedding actually happened...
        assert result.to_json()["retries"] == result.retries

    def test_seeded_backoff_replays(self):
        first = ExponentialBackoff(seed=42)
        second = ExponentialBackoff(seed=42)
        assert [first.delay(a) for a in range(6)] == [
            second.delay(a) for a in range(6)
        ]

    def test_delay_bounds_and_cap(self):
        backoff = ExponentialBackoff(base_s=0.1, cap_s=1.0, seed=0)
        for attempt in range(12):
            ceiling = min(1.0, 0.1 * 2.0**attempt)
            delay = backoff.delay(attempt)
            assert ceiling / 2.0 <= delay <= ceiling

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(base_s=0.0)
        with pytest.raises(ValueError):
            ExponentialBackoff(base_s=1.0, cap_s=0.5)
        with pytest.raises(ValueError):
            ExponentialBackoff(multiplier=0.9)

    def test_herd_decorrelates_on_an_injected_clock(self):
        # 200 clients all shed at t=0 retry under seeded equal-jitter
        # backoff.  Pure arithmetic — no sleeping, no server: compute each
        # client's cumulative retry instants and show the herd spreads out
        # instead of re-arriving in lock-step.
        clients = [
            ExponentialBackoff(base_s=0.05, cap_s=5.0, seed=seed)
            for seed in range(200)
        ]
        elapsed = [0.0] * len(clients)
        arrivals = []  # arrivals[k] = sorted retry instants of attempt k
        for attempt in range(5):
            for index, client in enumerate(clients):
                elapsed[index] += client.delay(attempt)
            arrivals.append(sorted(elapsed))

        def peak_density(instants, window=0.05):
            buckets = Counter(int(t / window) for t in instants)
            return max(buckets.values())

        # Attempt 0 is one solid herd (every delay lands in [base/2, base],
        # inside a single 50 ms window); by attempt 3 no window holds more
        # than ~a quarter of the clients and the decay continues — the
        # "same thundering herd re-arrives" failure mode is gone.
        assert peak_density(arrivals[0]) == len(clients)
        assert peak_density(arrivals[3]) < len(clients) * 0.35
        assert peak_density(arrivals[4]) < peak_density(arrivals[3])
        span = lambda xs: xs[-1] - xs[0]  # noqa: E731
        assert span(arrivals[3]) > 4 * span(arrivals[0])


# ---------------------------------------------------------------------------
# Request framing: malformed or oversized requests get a 4xx and a close
# ---------------------------------------------------------------------------
def raw_exchange(server, payload: bytes, timeout=10):
    """Send raw bytes; ``(status, headers, body)`` of the reply.

    Reads until the server closes the connection, so a server that kept
    the connection open (or waited for a body) fails on the timeout.
    """
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {
        key.strip().lower(): value.strip()
        for key, _, value in (line.partition(":") for line in lines[1:])
    }
    return int(lines[0].split()[1]), headers, json.loads(body)


def framed_post(content_length: str, body: bytes = b"") -> bytes:
    return (
        b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
        + f"Content-Length: {content_length}\r\n\r\n".encode("latin-1")
        + body
    )


class TestRequestFraming:
    @pytest.mark.parametrize("length", ["abc", "-5", "1e3", "\u00b2"])
    def test_malformed_content_length_gets_400_and_close(self, length):
        with ServerThread(make_registry()) as server:
            status, headers, body = raw_exchange(server, framed_post(length))
            assert status == 400
            assert headers["connection"] == "close"
            assert "Content-Length" in body["error"]
            stats = http_request(server.host, server.port, "GET", "/stats")
            assert stats["framing_errors"] == {"400": 1, "413": 0, "431": 0}

    def test_oversized_body_gets_413_without_waiting_for_it(self):
        with ServerThread(make_registry(), max_pairs=1024) as server:
            assert server.server.max_body_bytes == 64 * 1024 + 65536
            start = time.perf_counter()
            # Nothing of the announced body is ever sent: a server that
            # tried to read it would hang until the client timeout.
            status, headers, body = raw_exchange(server, framed_post("99999999999"))
            assert time.perf_counter() - start < 5
            assert status == 413
            assert headers["connection"] == "close"
            # One byte over the cap is refused the same way.
            over = str(server.server.max_body_bytes + 1)
            assert raw_exchange(server, framed_post(over))[0] == 413
            # So is a length too long for int() to parse.
            assert raw_exchange(server, framed_post("9" * 5000))[0] == 413
            stats = http_request(server.host, server.port, "GET", "/stats")
            assert stats["framing_errors"]["413"] == 3

    def test_overlong_header_line_gets_431(self):
        with ServerThread(make_registry()) as server:
            request = (
                b"POST /v1/query HTTP/1.1\r\nX-Padding: "
                + b"a" * 70_000
                + b"\r\nContent-Length: 0\r\n\r\n"
            )
            status, headers, body = raw_exchange(server, request)
            assert status == 431
            assert headers["connection"] == "close"
            assert "stream limit" in body["error"]
            stats = http_request(server.host, server.port, "GET", "/stats")
            assert stats["framing_errors"]["431"] == 1
            # The server is still healthy for well-framed requests.
            assert raw_request(
                server.host, server.port, "POST", "/v1/query", QUERY
            )[0] == 200

    @pytest.mark.parametrize("line", [b"GARBAGE\r\n", b"\r\n", b"GET\r\n"])
    def test_malformed_request_line_gets_400_not_a_dropped_socket(self, line):
        with ServerThread(make_registry()) as server:
            status, headers, body = raw_exchange(server, line)
            assert status == 400
            assert headers["connection"] == "close"
            assert "request line" in body["error"]
            stats = http_request(server.host, server.port, "GET", "/stats")
            assert stats["framing_errors"] == {"400": 1, "413": 0, "431": 0}

    def test_header_count_is_bounded_at_100(self):
        def request(count):
            fields = b"".join(b"X-H%d: v\r\n" % i for i in range(count))
            return b"GET /healthz HTTP/1.1\r\n" + fields + b"Connection: close\r\n\r\n"

        with ServerThread(make_registry()) as server:
            # 99 distinct fields plus Connection: exactly the limit.
            assert raw_exchange(server, request(99))[0] == 200
            status, headers, body = raw_exchange(server, request(100))
            assert status == 431
            assert headers["connection"] == "close"
            assert "header lines" in body["error"]
            stats = http_request(server.host, server.port, "GET", "/stats")
            assert stats["framing_errors"] == {"400": 0, "413": 0, "431": 1}

    def test_max_pairs_query_with_19_digit_ids_is_still_framed(self):
        # The body cap must admit the largest legal query: max_pairs pairs
        # of 19-digit ids.  It is read and decoded — and refused only by
        # the range check of the query layer, not by the framing.
        max_pairs = 2048
        big = 10**18  # 19 digits, still an int64
        query = {
            "op": "next-hop",
            "topology": "demo",
            "pairs": [[big, big]] * max_pairs,
        }
        payload = json.dumps(query).encode()
        with ServerThread(make_registry(), max_pairs=max_pairs) as server:
            assert len(payload) <= server.server.max_body_bytes
            status, _, body = raw_request(
                server.host, server.port, "POST", "/v1/query", query
            )
            assert status == 400
            assert "out of range" in body["error"]
            stats = http_request(server.host, server.port, "GET", "/stats")
            assert stats["framing_errors"] == {"400": 0, "413": 0, "431": 0}


# ---------------------------------------------------------------------------
# Bounded metrics
# ---------------------------------------------------------------------------
class TestBoundedMetrics:
    def test_endpoint_labels_cap_at_max_with_overflow_bucket(self):
        metrics = ServeMetrics()
        for index in range(MAX_ENDPOINTS + 50):
            metrics.record(f"op-{index:04d}", queries=1, seconds=0.001)
        endpoints = metrics.snapshot()["endpoints"]
        assert len(endpoints) == MAX_ENDPOINTS + 1  # the cap + "__other__"
        assert endpoints["__other__"]["requests"] == 50
        # totals are conserved — overflow aggregates, never drops
        assert sum(e["requests"] for e in endpoints.values()) == (
            MAX_ENDPOINTS + 50
        )

    def test_qps_window_deque_is_bounded_on_a_frozen_clock(self):
        # A frozen clock means no sample ever ages out of the window — the
        # deque maxlen is the only thing standing between a hot server and
        # unbounded growth.
        metrics = ServeMetrics(clock=lambda: 100.0)
        for _ in range(MAX_RECENT + 500):
            metrics.record("op", queries=1, seconds=0.001)
        assert len(metrics._recent) == MAX_RECENT
        assert metrics.queries_per_second() > 0


# --------------------------------------------------------------- read fuzz
#: Header lines: real ones, junk, and lines without a colon.
HEADER_LINES = st.one_of(
    st.sampled_from([b"Host: x", b"Connection: close", b"X-A: 1", b"nocolon", b": empty"]),
    st.binary(max_size=40).filter(lambda line: b"\n" not in line),
)
LENGTHS = st.one_of(
    st.none(),
    st.integers(0, 1500).map(lambda n: str(n).encode()),
    st.from_regex(rb"\A[0-9]{1,30}\Z"),
    st.sampled_from([b"", b"-1", b"1e3", b"0x10", b" 12", "١".encode()]),
    st.binary(max_size=12).filter(lambda text: b"\n" not in text),
)


class TestReadRequestFuzz:
    """``_read_request`` over a StreamReader fed in pieces: every input ends
    in a parsed request, a 4xx framing error or None, and no body byte past
    ``max_body_bytes`` is ever read."""

    @settings(max_examples=400, deadline=None)
    @given(
        line=st.one_of(
            st.sampled_from([b"POST /v1/query HTTP/1.1", b"GET /stats HTTP/1.1", b"", b"GET"]),
            st.binary(max_size=60).filter(lambda line: b"\n" not in line),
        ),
        headers=st.lists(HEADER_LINES, max_size=4),
        filler=st.sampled_from([0, 1, 99, 100, 101]),
        length=LENGTHS,
        ended=st.booleans(),
        body=st.binary(max_size=1500),
        cuts=st.lists(st.integers(0, 4000), max_size=4),
        limit=st.sampled_from([48, 1024, 2**16]),
    )
    def test_every_input_parses_refuses_or_closes(
        self, line, headers, filler, length, ended, body, cuts, limit
    ):
        server = RouteQueryServer(RouterRegistry(), reload_interval_s=0)
        server._executor.shutdown()
        server.max_body_bytes = 1000
        lines = [line, *headers, *[b"X-Filler: %d" % i for i in range(filler)]]
        if length is not None:
            lines.append(b"Content-Length: " + length)
        head = b"".join(item + b"\r\n" for item in lines) + (b"\r\n" if ended else b"")
        data = head + body
        bounds = sorted({0, len(data), *(cut for cut in cuts if cut < len(data))})

        async def scenario():
            reader = asyncio.StreamReader(limit=limit)
            task = asyncio.ensure_future(server._read_request(reader))
            for start, stop in zip(bounds, bounds[1:]):
                reader.feed_data(data[start:stop])
                await asyncio.sleep(0)
            reader.feed_eof()
            try:
                outcome = await task
            except _FramingError as error:
                outcome = error
            return outcome, len(data) - len(await reader.read())

        outcome, consumed = asyncio.run(scenario())
        if isinstance(outcome, _FramingError):
            assert outcome.status[:1] == "4" and outcome.status[:3] in {"400", "413", "431"}
        elif outcome is not None:
            method, path, parsed, got = outcome
            assert isinstance(method, str) and isinstance(path, str)
            assert len(got) == int(parsed.get("content-length") or 0)
        assert consumed <= len(head) + server.max_body_bytes
