"""The three benchmark workloads, driven through the public ``repro`` API.

Every workload has three phases:

* :meth:`Workload.setup` — the program's own start-up: imports, kernel
  warm-up, graphs, routers, registry and server.  ``setup_s`` times it in
  fresh processes (``run.py --setup-only``).
* :meth:`Workload.prepare` — the benchmark's bookkeeping: inputs and the
  expected outputs they are checked against.  Never timed.
* :meth:`Workload.run` — timed operations until the time is up.  Each
  batch workload times every step of its passes and checks every pass
  afterwards, outside the timed region; the serve workload times every
  request.

Inputs come only from the seed.  A simulator pass runs every traffic of a
small fixed pool, in an order set by the seed, so that every pass costs the
same and every output can be checked against a digest in ``expected.json``,
produced once by the ``kernels="numpy"`` reference engine
(``make_expected.py``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import itertools
import json
import shutil
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.spans import SpanRecorder

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps
#: every code path and check but finishes in about a second (self-tests).
#: Every pass is cut into steps of about 0.005-0.2 s (``step_n`` node counts
#: of a search range, one traffic of the simulator pool), so that each step
#: is run many times in a run and its fastest run is a steady estimate.
SIZES = {
    "full": {
        "table1": {8: (253, 384), 9: (509, 768), 10: (1022, 1536)},
        "table1_step_n": {8: 4, 9: 4, 10: 4},
        "fleet": {"diameter": 9, "n_range": (509, 768), "chunk_size": 64,
                  "step_n": 52},
        "saturation": {"split": (64, 128), "uniform": 10_000, "hotspot": 2_500},
        "degraded": {"split": (32, 64), "messages": 150, "failures": 32},
        "pool": 8,
        "serve": {"requests": 1200, "pool_pairs": 4096, "small": 16,
                  "bulk": 2048, "path": 512},
    },
    "tiny": {
        "table1": {8: (253, 264)},
        "table1_step_n": {8: 6},
        "fleet": {"diameter": 8, "n_range": (253, 300), "chunk_size": 16,
                  "step_n": 24},
        "saturation": {"split": (16, 32), "uniform": 2_000, "hotspot": 1_000},
        "degraded": {"split": (16, 32), "messages": 300, "failures": 8},
        "pool": 2,
        "serve": {"requests": 72, "pool_pairs": 512, "small": 16,
                  "bulk": 256, "path": 64},
    },
}


def n_steps(n_min: int, n_max: int, width: int) -> list[tuple[int, int]]:
    """``[n_min, n_max]`` cut into consecutive inclusive ranges of ``width``."""
    return [(lo, min(lo + width - 1, n_max)) for lo in range(n_min, n_max + 1, width)]


#: Serve topologies: (registry name, spec, router kind).
SERVE_TOPOLOGIES = (
    ("b10", "B(2,10)", "dense"),
    ("b16", "B(2,16)", "closed-form"),
    ("h16", "H(16,32,2)", "auto"),
)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def spec_key(spec: dict) -> str:
    """The ``expected.json`` key of one simulator workload size."""
    return json.dumps(spec, sort_keys=True)


def pool_seed(index: int) -> int:
    """The traffic seed of pool slot ``index``."""
    return 1000 + index


def sim_digest(stats, messages) -> str:
    """Digest of a simulation's ``NetworkStats`` and every message record."""
    digest = hashlib.sha256()
    fields = {
        key: (value.hex() if isinstance(value, float) else value)
        for key, value in dataclasses.asdict(stats).items()
    }
    digest.update(json.dumps(fields, sort_keys=True).encode())
    ints = np.array(
        [(m.ident, m.source, m.destination, m.hops) for m in messages], dtype=np.int64
    )
    times = np.array([(m.creation_time, m.arrival_time) for m in messages])
    digest.update(ints.tobytes())
    digest.update(np.nan_to_num(times, nan=-1.0).tobytes())
    digest.update("\n".join(m.drop_reason or "" for m in messages).encode())
    return digest.hexdigest()[:32]


@dataclass
class Tally:
    """What one measured phase did."""

    items: float = 0.0  #: splits, messages or pairs delivered
    busy_s: float = 0.0  #: time inside timed operations
    #: Batch workloads: seconds of every run of each named step of a pass.
    steps: dict[str, list[float]] = field(default_factory=dict)
    #: Serve: (finish time, round trip, pairs answered, trace position) of
    #: every request.
    requests: list[tuple[float, float, int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: float = 0.0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


class Workload:
    name = ""

    def __init__(self, size: str, seed: int, rec: SpanRecorder, tmp: Path | None = None,
                 traced: bool = False):
        self.sizes = SIZES[size]
        self.seed = seed
        self.rec = rec
        self.tmp = tmp
        self.traced = traced
        #: Values only the workload can see (``/stats`` deltas), per run.
        self.extra: dict[str, float] = {}
        self._passes = 0

    def setup(self) -> None:
        from repro import kernels

        kernels.warmup()

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    @contextmanager
    def step(self, name: str):
        """Time one step of a pass; every pass runs the same steps."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._steps.setdefault(name, []).append(time.perf_counter() - start)

    def run(self, seconds: float, tally: Tally) -> None:
        """Run whole passes until ``seconds`` have passed (at least one)."""
        self._steps = tally.steps
        deadline = time.perf_counter() + seconds
        first = True
        while first or time.perf_counter() < deadline:
            first = False
            index = self._passes
            self._passes += 1
            start = time.perf_counter()
            try:
                output = self.timed_pass(index)
            except Exception:  # noqa: BLE001 - a crash is a failed pass
                tally.busy_s += time.perf_counter() - start
                tally.attempted += self.ops_per_pass
                tally.fail(traceback.format_exc(), self.ops_per_pass)
                tally.passes += 1
                continue
            tally.busy_s += time.perf_counter() - start
            tally.passes += 1
            self.check_pass(index, output, tally)

    ops_per_pass = 1

    def timed_pass(self, index: int):
        raise NotImplementedError

    def check_pass(self, index: int, output, tally: Tally) -> None:
        raise NotImplementedError


# ------------------------------------------------------- table 1 and fleet
class Search(Workload):
    """The Table 1 search, in process and through the fleet.

    A pass runs the serial ``table1_rows(D)`` with no cache for every block,
    then the D = 9 sweep through ``run_fleet``: cold, with a fresh verdict
    cache, then warm, into a fresh store sharing that cache.  Both are cut
    into ranges of ``step_n`` node counts, each its own call (and, for the
    fleet, its own manifest, store and cache), so every step is short.
    """

    name = "search"

    def setup(self) -> None:
        super().setup()
        import repro.fleet  # noqa: F401
        import repro.otis.search  # noqa: F401

        spec = self.sizes["fleet"]
        self._manifest(*n_steps(*spec["n_range"], spec["step_n"])[0])  # hashes code_version

    def _manifest(self, lo: int, hi: int):
        from repro.otis.sweep import ChunkManifest

        spec = self.sizes["fleet"]
        return ChunkManifest.build(
            2, spec["diameter"], range(lo, hi + 1), chunk_size=spec["chunk_size"]
        )

    def prepare(self) -> None:
        from repro.otis.search import candidate_splits

        expected = load_expected()["table1"]

        def rows_and_splits(diameter, n_min, n_max):
            rows = [
                [n, [list(split) for split in splits]]
                for n, splits in expected[str(diameter)]
                if n_min <= n <= n_max
            ]
            splits = sum(len(candidate_splits(n, 2)) for n in range(n_min, n_max + 1))
            return rows, splits

        self.blocks = []
        for diameter, (n_min, n_max) in self.sizes["table1"].items():
            ranges = n_steps(n_min, n_max, self.sizes["table1_step_n"][diameter])
            self.blocks.append((diameter, ranges, *rows_and_splits(diameter, n_min, n_max)))
        spec = self.sizes["fleet"]
        self.fleet_ranges = n_steps(*spec["n_range"], spec["step_n"])
        self.fleet_rows, self.fleet_splits = rows_and_splits(
            spec["diameter"], *spec["n_range"]
        )
        self.ops_per_pass = len(self.blocks) + 2  # every block, cold and warm fleet

    def _fleet_once(self, manifest, out_dir: Path, cache_dir: Path):
        from repro.fleet import SweepFleetJob, run_fleet
        from repro.otis.sweep import merge_sweep

        job = SweepFleetJob(manifest, out_dir, cache=cache_dir)
        with self.rec.span("fleet.driver.run_fleet"):
            outcome = run_fleet(job, wait=False)
        with self.rec.span("otis.sweep.merge"):
            result = merge_sweep(manifest, out_dir)
        return outcome, result

    def timed_pass(self, index: int):
        from repro.otis import search

        blocks = []
        for diameter, ranges, _, _ in self.blocks:
            parts = []
            for lo, hi in ranges:
                with self.step(f"D={diameter} n={lo}"), self.rec.span("otis.search.table1_rows"):
                    parts.append(search.table1_rows(diameter, n_min=lo, n_max=hi))
            blocks.append(parts)
        pass_dir = self.tmp / f"fleet-{index}"
        manifests, cold, warm = [], [], []
        for lo, hi in self.fleet_ranges:
            with self.step(f"fleet cold n={lo}"):
                manifests.append(self._manifest(lo, hi))
                cold.append(self._fleet_once(
                    manifests[-1], pass_dir / f"cold-{lo}", pass_dir / f"cache-{lo}"
                ))
        for (lo, _), manifest in zip(self.fleet_ranges, manifests):
            with self.step(f"fleet warm n={lo}"):
                warm.append(self._fleet_once(
                    manifest, pass_dir / f"warm-{lo}", pass_dir / f"cache-{lo}"
                ))
        return blocks, cold, warm, pass_dir

    def check_pass(self, index, output, tally: Tally) -> None:
        from repro.otis.search import compare_with_paper

        blocks, cold, warm, pass_dir = output
        shutil.rmtree(pass_dir, ignore_errors=True)
        for (diameter, _, rows, splits), parts in zip(self.blocks, blocks):
            tally.attempted += 1
            measured = [[n, [list(s) for s in found]] for part in parts for n, found in part.rows]
            if measured != rows or not all(compare_with_paper(p)["all_match"] for p in parts):
                tally.fail(f"Table 1 block D={diameter} differs from the paper rows")
            else:
                tally.items += splits
        # Both merges equal to the in-process rows implies equal to each other.
        for label, runs in (("cold", cold), ("warm", warm)):
            tally.attempted += 1
            measured = [
                [n, [list(s) for s in found]] for _, result in runs for n, found in result.rows
            ]
            if not all(outcome["complete"] for outcome, _ in runs) or measured != self.fleet_rows:
                tally.fail(f"{label} fleet merge differs from the in-process rows")
            else:
                tally.items += self.fleet_splits


# ------------------------------------------------------------- simulator
def degraded_scenario(graph, spec: dict):
    """Bursty arrivals, retrying finite buffers, link failures, reroute."""
    from repro.simulation import (
        BufferedLinkModel,
        BurstyArrivals,
        FaultPlan,
        Scenario,
    )

    return Scenario(
        arrivals=BurstyArrivals(num_messages=spec["messages"]),
        link=BufferedLinkModel(capacity=4, on_full="retry"),
        faults=FaultPlan.random_link_failures(graph, spec["failures"], at=50.0, seed=0),
        reroute="arc-disjoint",
    )


class Simulate(Workload):
    """Saturation traffic on the vector path and a degrading scenario on the
    scalar per-event path.

    A pass runs, for every traffic seed of a small fixed pool in an order set
    by the seed, a uniform and a hotspot saturation traffic (all messages at
    time 0) through ``BatchedNetworkSimulator(H(64,128,2))`` with the auto
    router and kernels, and one bursty traffic through the degrading
    scenario on ``H(32,64,2)``.  Every traffic is one step.
    """

    name = "simulate"

    def _make_simulator(self, graph, **kwargs):
        from repro.simulation import BatchedNetworkSimulator

        with self.rec.span("simulation.network.construct"):
            if self.traced:
                from perfbench.seams import traced_router
                from repro.routing.routers import make_router

                kwargs["router"] = traced_router(make_router(graph, "auto"), self.rec)
            return BatchedNetworkSimulator(graph, **kwargs)

    def setup(self) -> None:
        super().setup()
        from repro.otis.h_digraph import h_digraph

        self.saturation_graph = h_digraph(*self.sizes["saturation"]["split"], 2)
        self.saturation = self._make_simulator(self.saturation_graph)
        spec = self.sizes["degraded"]
        self.degraded_graph = h_digraph(*spec["split"], 2)
        self.scenario = degraded_scenario(self.degraded_graph, spec)
        self.degraded = self._make_simulator(self.degraded_graph, scenario=self.scenario)

    def prepare(self) -> None:
        expected = load_expected()
        self.expected = {
            **expected["sim_saturation"][spec_key(self.sizes["saturation"])],
            "degraded": expected["sim_degraded"][spec_key(self.sizes["degraded"])],
        }
        self.ops_per_pass = 3 * self.sizes["pool"]  # uniform, hotspot, degraded

    def pass_slots(self, index: int) -> list[int]:
        """Every pool slot, in an order set by the seed and the pass."""
        pool = self.sizes["pool"]
        return [(self.seed + index + offset) % pool for offset in range(pool)]

    def _run(self, simulator, traffic):
        trace = [] if self.rec.enabled else None
        with self.rec.span("simulation.network.run"):
            stats, messages = simulator.run(traffic, trace=trace)
        return stats, messages, trace

    def timed_pass(self, index: int):
        from repro.simulation import workloads

        n = self.saturation_graph.num_vertices
        runs = []
        for slot in self.pass_slots(index):
            for kind in ("uniform", "hotspot"):
                with self.step(f"{kind}-{slot}"):
                    with self.rec.span("simulation.workloads.make_workload"):
                        traffic = workloads.make_workload(
                            kind, n, self.sizes["saturation"][kind], rng=pool_seed(slot)
                        )
                    runs.append((slot, kind, self._run(self.saturation, traffic)))
            with self.step(f"degraded-{slot}"):
                with self.rec.span("simulation.scenarios.traffic"):
                    traffic = self.scenario.traffic(
                        self.degraded_graph.num_vertices, pool_seed(slot)
                    )
                runs.append((slot, "degraded", self._run(self.degraded, traffic)))
        return runs

    def check_pass(self, index, runs, tally: Tally) -> None:
        for slot, kind, (stats, messages, trace) in runs:
            tally.attempted += 1
            if sim_digest(stats, messages) != self.expected[kind][slot]:
                tally.fail(f"{kind} simulation (pool slot {slot}) differs from its digest")
            else:
                tally.items += len(messages)
            if trace is None:
                continue
            self.rec.add("simulation.network.batches", len(trace))
            self.rec.add("simulation.network.events", sum(len(b[2]) for b in trace))
            self.rec.add("simulation.network.hops", sum(m.hops for m in messages))
            if kind == "degraded":
                self.rec.add("simulation.scenarios.rerouted_hops", stats.rerouted_hops)
                self.rec.add("simulation.scenarios.retransmits", stats.retransmits)
                self.rec.add("simulation.scenarios.delivered", stats.delivered)
                self.rec.add("simulation.scenarios.messages", len(messages))


# ------------------------------------------------------------------ serve
@dataclass
class _Request:
    """One trace entry and the answer direct Router calls give for it."""

    op: str
    topology: str
    pairs: np.ndarray  #: (k, 2) int64 (source, target) rows
    field: str  #: reply field that carries the answer
    expected: tuple  #: answer arrays (paths: hop counts and flattened vertices)

    def encode(self) -> bytes:
        query = {"op": self.op, "topology": self.topology, "pairs": self.pairs.tolist()}
        return json.dumps(query).encode()

    def matches(self, reply: dict) -> bool:
        answer = reply.get(self.field)
        if reply.get("ok") is not True or reply.get("count") != len(self.pairs):
            return False
        try:
            if self.field == "paths":
                lengths = [-1 if path is None else len(path) - 1 for path in answer]
                answer = [v for path in answer if path is not None for v in path]
                got = (np.asarray(lengths, dtype=np.int64), np.asarray(answer, dtype=np.int64))
            else:
                got = (np.asarray(answer, dtype=self.expected[0].dtype),)
        except (TypeError, ValueError):
            return False
        return all(np.array_equal(a, b) for a, b in zip(got, self.expected))


def _expected_paths(router, sources: np.ndarray, targets: np.ndarray) -> tuple:
    """Hop counts (-1: unreachable) and the concatenated vertex lists of the
    reachable routed paths, walking ``router.next_hops`` one level at a time."""
    paths = [[int(s)] for s in sources.tolist()]
    current = sources.copy()
    active = np.flatnonzero(current != targets)
    while active.size:
        nxt = router.next_hops(current[active], targets[active])
        for position, index in enumerate(active.tolist()):
            if nxt[position] < 0:
                paths[index] = None
            else:
                paths[index].append(int(nxt[position]))
        current[active] = np.where(nxt >= 0, nxt, targets[active])
        active = active[current[active] != targets[active]]
    lengths = np.array([-1 if path is None else len(path) - 1 for path in paths])
    flat = np.array([v for path in paths if path is not None for v in path], dtype=np.int64)
    return lengths, flat


async def _read_response(reader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    status = int(status_line.split(None, 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


class ServeQueries(Workload):
    name = "serve_queries"

    connections = 2

    def setup(self) -> None:
        super().setup()
        from repro.serve import RouterRegistry, ServerThread

        self.registry = RouterRegistry()
        for name, spec, router in SERVE_TOPOLOGIES:
            self.registry.add(name, spec, router)
        self.server = ServerThread(self.registry).start()

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None

    def prepare(self) -> None:
        """The seeded request trace and, per request, the direct Router answer."""
        from repro.graphs.generators import de_bruijn
        from repro.otis.h_digraph import h_digraph
        from repro.routing.routers import make_router
        from repro.simulation.workloads import make_workload

        spec = self.sizes["serve"]
        graphs = {"b10": de_bruijn(2, 10), "b16": de_bruijn(2, 16),
                  "h16": h_digraph(16, 32, 2)}
        routers = {
            name: make_router(graphs[name], kind) for name, _, kind in SERVE_TOPOLOGIES
        }
        rng = np.random.default_rng(self.seed)
        pools = {}
        for name, graph in graphs.items():
            for kind in ("uniform", "hotspot"):
                traffic = make_workload(
                    kind, graph.num_vertices, spec["pool_pairs"],
                    rng=int(rng.integers(2**31)),
                )
                pools[name, kind] = np.array(
                    [(s, t) for s, t, _ in traffic], dtype=np.int64
                )
        # The mix is fixed (3/4 small next-hop, 1/12 each bulk shape, spread
        # evenly over topologies and traffic kinds); the seed only orders it
        # and picks the pairs, so every seed asks for the same amount of work.
        bulk = spec["requests"] // 12
        shapes = (
            ("next-hop", spec["small"], spec["requests"] - 3 * bulk),
            ("next-hop", spec["bulk"], bulk),
            ("eta", spec["bulk"], bulk),
            ("path", spec["path"], bulk),
        )
        combos = list(itertools.product(graphs, ("uniform", "hotspot")))
        mix = [
            (op, size) + combos[index % len(combos)]
            for op, size, count in shapes
            for index in range(count)
        ]
        self.trace: list[_Request] = []
        for position in rng.permutation(len(mix)):
            op, size, topology, kind = mix[position]
            pool = pools[topology, kind]
            offset = int(rng.integers(len(pool) - size + 1))
            pairs = pool[offset:offset + size]
            sources, targets = pairs[:, 0].copy(), pairs[:, 1].copy()
            router = routers[topology]
            if op == "next-hop":
                field_name, answer = "hops", (router.next_hops(sources, targets),)
            elif op == "eta":
                field_name, answer = "etas", (router.etas(sources, targets),)
            else:
                field_name, answer = "paths", _expected_paths(router, sources, targets)
            self.trace.append(_Request(op, topology, pairs, field_name, answer))
        self._cursor = int(rng.integers(len(self.trace)))

    @property
    def window(self) -> int:
        """Requests per measurement window: one replay of the whole mix, so
        that every window holds the same work (and, full size, more than 1000
        requests, so its p99 has ten samples beyond it)."""
        return len(self.trace)

    def _stats(self) -> dict:
        from repro.serve.bench import http_request

        return http_request(self.server.host, self.server.port, "GET", "/stats")

    def run(self, seconds: float, tally: Tally) -> None:
        before = self._stats() if self.rec.enabled else None
        start = time.perf_counter()
        sent = asyncio.run(self._replay(start + seconds, tally, tally.requests))
        tally.busy_s += time.perf_counter() - start
        tally.passes += sent / len(self.trace)
        self._cursor = (self._cursor + sent) % len(self.trace)
        if before is not None:
            after = self._stats()
            self._add_stats_delta(before, after)

    def _add_stats_delta(self, before: dict, after: dict) -> None:
        def endpoint_sum(stats, key):
            return sum(e.get(key, 0) for e in stats.get("endpoints", {}).values())

        deltas = {
            "serve.server.requests": endpoint_sum(after, "requests")
            - endpoint_sum(before, "requests"),
            "serve.server.pairs": endpoint_sum(after, "queries")
            - endpoint_sum(before, "queries"),
            "serve.server.batches": after["batching"]["batches"]
            - before["batching"]["batches"],
            "serve.server.shed": after["backpressure"]["shed"]
            - before["backpressure"]["shed"],
            "serve.server.deadline_misses": after["backpressure"]["deadline_exceeded"]
            - before["backpressure"]["deadline_exceeded"],
        }
        for key, value in deltas.items():
            self.extra[key] = self.extra.get(key, 0.0) + value

    async def _replay(self, deadline: float, tally: Tally, done: list) -> int:
        order = itertools.count()
        host, port = self.server.host, self.server.port
        rec = self.rec
        trace = self.trace

        async def connection():
            reader, writer = await asyncio.open_connection(host, port)
            try:
                while time.perf_counter() < deadline:
                    position = (self._cursor + next(order)) % len(trace)
                    request = trace[position]
                    with rec.span("serve.client.encode"):
                        body = request.encode()
                        payload = (
                            b"POST /v1/query HTTP/1.1\r\n"
                            b"Content-Type: application/json\r\n"
                            b"Content-Length: %d\r\n\r\n" % len(body)
                        ) + body
                    start = time.perf_counter()
                    writer.write(payload)
                    await writer.drain()
                    status, reply_body = await _read_response(reader)
                    finish = time.perf_counter()
                    tally.attempted += 1
                    ok = status == 200
                    if ok:
                        with rec.span("serve.client.decode"):
                            reply = json.loads(reply_body)
                        ok = request.matches(reply)
                    if ok:
                        tally.items += len(request.pairs)
                    else:
                        tally.fail(f"{request.op} on {request.topology}: HTTP {status} "
                                   f"{reply_body[:200]!r}")
                    pairs = len(request.pairs) if ok else 0
                    done.append((finish, finish - start, pairs, position))
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass

        await asyncio.gather(*(connection() for _ in range(self.connections)))
        return next(order)


WORKLOADS = {
    cls.name: cls
    for cls in (Search, Simulate, ServeQueries)
}
