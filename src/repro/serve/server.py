"""The asyncio batch route-query server.

Transport is deliberately minimal HTTP/1.1 on stdlib ``asyncio`` streams (no
new dependencies): one JSON object per request body, keep-alive connections,
four routes:

* ``POST /v1/query`` — a batch next-hop / path / ETA query
  (:mod:`repro.serve.protocol`),
* ``GET /stats`` — the metrics snapshot (:mod:`repro.serve.metrics`) plus
  the per-topology registry snapshot (router kind, state bytes, cache hit
  rates, version),
* ``POST /reload`` — force a spec-file reload (hot reload also runs
  periodically), returns the changed topology names,
* ``GET /healthz`` — liveness.

**Framing.**  A request the server cannot frame is refused and its
connection closed: a request line without a method and a path, or a
``Content-Length`` that is not a decimal integer, gets ``400``; a request
or header line longer than the stream limit, or more than
:data:`_MAX_HEADERS` header lines, gets ``431``; and a body above
:attr:`RouteQueryServer.max_body_bytes` (derived from ``max_pairs``) gets
``413`` before any of it is read.  The refusals are counted under
``framing_errors`` in ``/stats``.

**One request, per thread.**  On the event-loop thread a ``/v1/query``
body goes through the compiled reader (:func:`~repro.serve.protocol.
read_query`); a body it declines, and every body on the numpy backend,
takes ``json.loads`` and :func:`~repro.serve.protocol.decode_query`, whose
messages every ``400`` reply carries.  The router call and the encoding of
the round's replies (:func:`~repro.serve.protocol.encode_replies`: one C
pass for them all, or ``json.dumps`` without a compiler) run in the
executor; the loop thread then writes the bytes.  ``/stats``, errors and
the control routes are ``json.dumps`` on the loop.

**Micro-batching (group commit).**  Concurrent requests against the same
``(topology, version, op)`` coalesce without a timer: a request whose key has
no flush running starts one at once (requests decoded in the same event-loop
turn still join it), and requests that arrive while the key's router call is
in the executor collect in its bucket for the flush's next round, until the
bucket is empty — so batches grow with load and shrink to one request at
idle.  A bucket that reaches ``batch_pairs`` pairs goes to the executor at
once.  One round concatenates every pending query into single numpy arrays
and makes *one* router call in a worker thread, then splits the result arrays
back per request — so a thousand small concurrent queries cost one vectorised
``next_hops`` dispatch, which is where the >100k queries/sec of
``BENCH_serve.json`` comes from.  A router call that raises answers its whole
batch ``500`` and leaves the connections open.  All batching state lives on
the event-loop thread (no locks); only the router call and the encoding
run in the executor, which is why the router thread-safety contract of
:class:`repro.routing.routers.Router` matters.  The one exception is a
round of at most :data:`INLINE_PAIRS` pairs on a lock-free router
(:meth:`~repro.routing.routers.Router.lock_free`: the closed form, or a
whole table): the event loop answers and encodes it itself, because it
costs about as much as the two thread hand-offs of the executor round
trip.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    ARRAY_FIELDS,
    BatchQuery,
    ProtocolError,
    answer_query,
    check_range,
    decode_query,
    encode_replies,
    read_query,
)
from repro.serve.registry import RouterEntry, RouterRegistry

__all__ = ["RouteQueryServer"]

_JSON_HEADERS = "Content-Type: application/json\r\n"

#: Most header lines one request may carry (``http.client``'s limit).
_MAX_HEADERS = 100

#: Most pairs of a round the event loop answers itself on a lock-free
#: router.  At 64 pairs a next-hop or eta round costs at most ~35 us and a
#: path round ~60-110 us, against ~56 us for one executor round trip
#: (medians on 2 cores; docs/serve.md).
INLINE_PAIRS = 64


class _FramingError(Exception):
    """A request whose framing the server refuses (reply, then close)."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


class _Bucket(list):
    """The ``(query, future)`` entries of one key awaiting a router call."""

    pairs = 0  #: total pairs of the entries


class RouteQueryServer:
    """One server process: registry + metrics + micro-batched query loop."""

    def __init__(
        self,
        registry: RouterRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        link=None,
        batch_pairs: int = 8192,
        max_pairs: int = 65536,
        reload_interval_s: float = 2.0,
        executor_threads: int = 2,
        max_inflight: int | None = None,
        request_timeout_s: float | None = None,
        retry_after_s: float = 0.5,
    ):
        if link is None:
            from repro.simulation.network import LinkModel

            link = LinkModel()
        self.registry = registry
        self.host = host
        self.port = int(port)  # 0 until started; then the bound port
        self.link = link
        self.batch_pairs = int(batch_pairs)
        self.max_pairs = int(max_pairs)
        #: Largest accepted request body: 64 bytes per pair covers a JSON
        #: pair of two 19-digit ids with separators, plus 64 KiB of slack
        #: for the rest of the query object.
        self.max_body_bytes = 64 * self.max_pairs + 65536
        self.reload_interval_s = float(reload_interval_s)
        #: Admission cap on concurrently processed ``/v1/query`` requests.
        #: Beyond it the server sheds with ``429 + Retry-After`` instead of
        #: queueing without bound — accepted requests keep their latency,
        #: and ``/healthz``, ``/stats`` and ``/reload`` stay responsive.
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        #: Per-request deadline: a query slower than this is cancelled and
        #: answered ``503`` so a wedged router call cannot pin a connection
        #: (and its batch slot) forever.  None disables the deadline.
        self.request_timeout_s = (
            None if request_timeout_s is None else float(request_timeout_s)
        )
        self.retry_after_s = float(retry_after_s)
        self.metrics = ServeMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._reload_task: asyncio.Task | None = None
        # Micro-batch buckets keyed (topology, entry version, op), the keys
        # with a flush running, and the batch tasks (the loop holds tasks
        # weakly); only the event-loop thread touches them, so no lock.
        self._pending: dict[tuple, _Bucket] = {}
        self._flushing: set[tuple] = set()
        self._batch_tasks: set[asyncio.Task] = set()
        self._connections: set[asyncio.Task] = set()
        self._inflight = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> int:
        """Bind and start serving; returns the actual port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.reload_interval_s > 0:
            self._reload_task = asyncio.get_running_loop().create_task(
                self._reload_loop()
            )
        return self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def drain(self, grace_s: float = 10.0) -> None:
        """Graceful shutdown: stop admitting queries, finish in-flight, stop.

        New ``/v1/query`` requests are answered ``503`` the moment draining
        starts (``/healthz`` turns unhealthy too, so load balancers pull the
        instance); requests already admitted get up to ``grace_s`` seconds
        to finish before :meth:`stop` tears the transport down.  This is
        what the CLI runs on SIGTERM.
        """
        self._draining = True
        if self._inflight and grace_s > 0:
            try:
                await asyncio.wait_for(self._idle.wait(), grace_s)
            except asyncio.TimeoutError:
                pass  # grace spent — stop() cancels the stragglers
        await self.stop()

    async def stop(self) -> None:
        if self._reload_task is not None:
            self._reload_task.cancel()
            self._reload_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections sit in readline() forever, a batch on a
        # wedged router call in its executor; cancel both so loop teardown
        # never destroys a pending task.
        tasks = self._connections | self._batch_tasks
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._executor.shutdown(wait=False)

    async def _reload_loop(self) -> None:
        while True:
            await asyncio.sleep(self.reload_interval_s)
            try:
                self.registry.reload()
            except (OSError, ValueError):  # keep serving on a bad spec file
                pass

    # ------------------------------------------------------------ HTTP layer
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:  # pragma: no branch
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _FramingError as error:
                    self.metrics.record_framing_error(error.status)
                    reply = {"ok": False, "error": str(error)}
                    self._write_reply(writer, error.status, reply, {}, False)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                result = await self._dispatch(method, path, body)
                extra = result[2] if len(result) > 2 else {}
                self._write_reply(writer, result[0], result[1], extra, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover - racy teardown paths
                pass
            # Deregister last: until then stop() can still cancel/reap us.
            if task is not None:  # pragma: no branch
                self._connections.discard(task)

    @staticmethod
    def _write_reply(writer, status, reply, extra, keep_alive) -> None:
        """Write one response: ``reply`` is its encoded body (a query's), or
        an object ``json.dumps`` encodes."""
        extra_lines = "".join(f"{k}: {v}\r\n" for k, v in extra.items())
        if isinstance(reply, bytes):
            payload = reply
        else:
            payload = (json.dumps(reply) + "\n").encode()
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                f"{_JSON_HEADERS}"
                f"{extra_lines}"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            ).encode()
            + payload
        )

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request; None on a connection closed before
        it (cleanly, or mid-body).

        Raises :class:`_FramingError` for a request the server refuses to
        frame (see the module docstring); reads no body byte past
        :attr:`max_body_bytes`.
        """
        try:
            line = await reader.readline()
            if not line:
                return None
            parts = line.decode("latin-1").split()
            if len(parts) < 2:
                raise _FramingError(
                    "400 Bad Request", f"malformed request line {line[:64]!r}"
                )
            method, path = parts[0].upper(), parts[1]
            headers: dict[str, str] = {}
            lines = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                lines += 1
                if lines > _MAX_HEADERS:
                    raise _FramingError(
                        "431 Request Header Fields Too Large",
                        f"more than {_MAX_HEADERS} header lines",
                    )
                key, _, value = header.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
        except ValueError:  # readline: the line overran the stream limit
            raise _FramingError(
                "431 Request Header Fields Too Large",
                "request line or header field exceeds the stream limit",
            ) from None
        text = headers.get("content-length", "") or "0"
        if not (text.isascii() and text.isdigit()):
            raise _FramingError(
                "400 Bad Request", f"invalid Content-Length {text[:32]!r}"
            )
        # Compare digit counts first: int() refuses strings past ~4300
        # digits, and a header line may hold far more.
        if len(text) > 18 or int(text) > self.max_body_bytes:
            raise _FramingError(
                "413 Payload Too Large",
                f"body of {text[:32]} bytes exceeds the limit of "
                f"{self.max_body_bytes} bytes",
            )
        length = int(text)
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:  # the client went away mid-body
            return None
        return method, path, headers, body

    async def _dispatch(self, method: str, path: str, body: bytes):
        """Route one request; ``(status line, reply[, extra headers])``.

        Control-plane routes (``/healthz``, ``/stats``, ``/reload``) bypass
        admission control on purpose: an overloaded server must still
        answer its health checks — shedding keeps the data plane bounded
        precisely so the control plane stays green.
        """
        if path == "/healthz":
            if self._draining:
                return "503 Service Unavailable", {
                    "ok": False,
                    "draining": True,
                    "inflight": self._inflight,
                }
            return "200 OK", {"ok": True, "topologies": self.registry.names()}
        if path == "/stats":
            stats = self.metrics.snapshot()
            stats["ok"] = True
            stats["topologies"] = self.registry.snapshot()
            stats["inflight"] = self._inflight
            stats["max_inflight"] = self.max_inflight
            stats["draining"] = self._draining
            stats["reload"] = {
                "reloads": self.registry.reloads,
                "failed_reloads": self.registry.failed_reloads,
                "last_error": self.registry.last_error,
            }
            return "200 OK", stats
        if path == "/reload":
            if method != "POST":
                return "405 Method Not Allowed", {
                    "ok": False,
                    "error": "use POST /reload",
                }
            try:
                changed = self.registry.reload(force=True, strict=True)
            except (OSError, ValueError) as error:
                return "500 Internal Server Error", {
                    "ok": False,
                    "error": f"reload failed: {error}",
                }
            return "200 OK", {"ok": True, "changed": changed}
        if path == "/v1/query":
            if method != "POST":
                return "405 Method Not Allowed", {
                    "ok": False,
                    "error": "use POST /v1/query",
                }
            return await self._admit_query(body)
        return "404 Not Found", {"ok": False, "error": f"no route {path!r}"}

    async def _admit_query(self, body: bytes):
        """Backpressure wrapper around the query path.

        Sheds with ``429 + Retry-After`` at the in-flight cap (bounded
        queue ⇒ bounded latency for what *is* accepted), refuses with
        ``503`` while draining, and cancels at the per-request deadline.
        """
        retry_header = {"Retry-After": f"{self.retry_after_s:g}"}
        if self._draining:
            return (
                "503 Service Unavailable",
                {"ok": False, "error": "server is draining"},
                retry_header,
            )
        if self.max_inflight is not None and self._inflight >= self.max_inflight:
            self.metrics.record_shed()
            return (
                "429 Too Many Requests",
                {
                    "ok": False,
                    "error": "server at capacity",
                    "retry_after_s": self.retry_after_s,
                },
                retry_header,
            )
        self._inflight += 1
        self._idle.clear()
        try:
            if self.request_timeout_s is not None:
                try:
                    return await asyncio.wait_for(
                        self._handle_query(body), self.request_timeout_s
                    )
                except asyncio.TimeoutError:
                    self.metrics.record_deadline()
                    return (
                        "503 Service Unavailable",
                        {
                            "ok": False,
                            "error": "deadline exceeded "
                            f"({self.request_timeout_s:g}s)",
                        },
                        retry_header,
                    )
            return await self._handle_query(body)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    # ----------------------------------------------------------- query path
    async def _handle_query(self, body: bytes):
        start = time.perf_counter()
        op = "invalid"

        def refuse(status: str, message: str):
            self.metrics.record(
                op, queries=0, seconds=time.perf_counter() - start, error=True
            )
            return status, {"ok": False, "error": message}

        try:
            query = read_query(body, max_pairs=self.max_pairs)
            if query is None:  # declined: the Python decode, with its messages
                try:
                    obj = json.loads(body)
                except ValueError as error:
                    raise ProtocolError(f"request body is not JSON: {error}")
                query = decode_query(obj, max_pairs=self.max_pairs)
            op = query.op
            try:
                entry = self.registry.get(query.topology)
            except KeyError:
                known = ", ".join(self.registry.names()) or "(none)"
                return refuse(
                    "404 Not Found",
                    f"unknown topology {query.topology!r} (serving: {known})",
                )
            check_range(query, entry.router.num_vertices())
        except ProtocolError as error:
            return refuse("400 Bad Request", str(error))
        try:
            reply = await self._submit(entry, query)
        except Exception as error:  # noqa: BLE001 - its router call failed
            return refuse("500 Internal Server Error", f"router call: {error!r}")
        self.metrics.record(
            op, queries=query.count, seconds=time.perf_counter() - start
        )
        return "200 OK", reply

    async def _submit(self, entry: RouterEntry, query) -> bytes:
        """Add a validated query to its key's bucket; await its reply's bytes."""
        loop = asyncio.get_running_loop()
        key = (entry.name, entry.version, query.op)
        future: asyncio.Future = loop.create_future()
        bucket = self._pending.setdefault(key, _Bucket())
        bucket.append((query, future))
        bucket.pairs += query.count
        if bucket.pairs >= self.batch_pairs:
            del self._pending[key]
            self._spawn(self._commit(entry, bucket))
        elif key not in self._flushing:
            self._flushing.add(key)
            self._spawn(self._flush(key, entry))
        return await future

    def _spawn(self, coroutine) -> None:
        task = asyncio.get_running_loop().create_task(coroutine)
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _flush(self, key, entry: RouterEntry) -> None:
        """Commit the key's bucket, then what arrived meanwhile, until empty."""
        try:
            while (bucket := self._pending.pop(key, None)) is not None:
                await self._commit(entry, bucket)
        finally:
            self._flushing.discard(key)

    async def _commit(self, entry: RouterEntry, bucket: _Bucket) -> None:
        """One router call, in the executor unless the round is small and
        the router lock-free; resolves the bucket's waiters."""
        loop = asyncio.get_running_loop()
        queries = [query for query, _ in bucket]
        try:
            if bucket.pairs <= INLINE_PAIRS and entry.router.lock_free():
                replies = self._run_batch(entry, queries)
            else:
                replies = await loop.run_in_executor(
                    self._executor, self._run_batch, entry, queries
                )
        except Exception as error:  # noqa: BLE001 - fail every waiter
            loop.call_exception_handler(
                {"message": f"batch on {entry.name!r} failed", "exception": error}
            )
            for _, future in bucket:
                if not future.done():
                    future.set_exception(error)
            return
        self.metrics.record_batch(requests=len(bucket), pairs=bucket.pairs)
        for (_, future), reply in zip(bucket, replies):
            if not future.done():
                future.set_result(reply)

    def _run_batch(self, entry: RouterEntry, queries) -> list[bytes]:
        """One coalesced router call for a bucket of same-op queries, and
        the encoded reply of each.

        Runs in a worker thread, or on the event loop for a small round on a
        lock-free router.  Single-query buckets skip the concat/split
        round-trip; multi-query buckets answer the concatenated arrays once
        and slice the result arrays back per request.  Either way every
        reply is bit-identical to answering each query alone — concatenation
        changes the batching, never the per-pair arithmetic.  One
        :func:`encode_replies` call then writes every reply of the round.
        """
        combined = queries[0] if len(queries) == 1 else BatchQuery(
            op=queries[0].op,
            topology=queries[0].topology,
            sources=np.concatenate([q.sources for q in queries]),
            targets=np.concatenate([q.targets for q in queries]),
        )
        merged = answer_query(
            combined, entry.router, link=self.link, version=entry.version
        )
        if len(queries) == 1:
            return encode_replies([merged], link=self.link)
        replies = []
        offset = 0
        for query in queries:
            end = offset + query.count
            reply = dict(merged, count=query.count)
            for field in ARRAY_FIELDS:
                if field in merged:
                    reply[field] = merged[field][offset:end]
            if query.id is not None:
                reply["id"] = query.id
            replies.append(reply)
            offset = end
        return encode_replies(replies, link=self.link)
