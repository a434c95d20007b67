"""Where the traced run enters the program, and the per-layer metrics.

Every span comes from one of four public seams, so the program itself is
not edited to be measured:

* module and class attributes that the program looks up at call time
  (``repro.otis.search.h_diameter``, ``ChunkStore.write``, the server
  module's ``decode_query`` and ``json``, the registry's ``make_router``);
* the ``router=`` argument of the simulators (:class:`TracedRouter`);
* the kernel namespace returned by ``repro.kernels.get_kernels``;
* the server's public ``/stats`` endpoint (read by the serve workload).

Calls the benchmark makes itself (``table1_rows``, ``run_fleet``,
``BatchedNetworkSimulator.run`` ...) are wrapped at the call site with
:meth:`SpanRecorder.span` instead.

:func:`install` applies the patches and returns a function that restores
every original attribute.  :func:`layer_metrics` turns the recorder's
summary and counters into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
from types import SimpleNamespace

from perfbench.spans import SpanRecorder

#: The layers a span name can start with (its first dotted component).
LAYERS = ("otis", "graphs", "kernels", "routing", "simulation", "fleet", "serve")


def timed(rec: SpanRecorder, name: str, fn, after=None):
    """``fn`` wrapped in a span; ``after(rec, args, result)`` may count."""
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        index = rec.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(index)
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def traced_router(inner, rec: SpanRecorder):
    """A :class:`~repro.routing.routers.Router` recording spans around ``inner``."""
    from repro.routing.routers import Router

    class TracedRouter(Router):
        def __init__(self):
            self._inner = inner
            self.kind = inner.kind
            self.next_hop = timed(rec, "routing.routers.next_hop", inner.next_hop)
            self.next_hops = timed(
                rec,
                "routing.routers.next_hops",
                inner.next_hops,
                after=lambda r, args, _: r.add(
                    "routing.routers.next_hops.pairs", len(args[0])
                ),
            )
            self.path_lengths = timed(
                rec, "routing.routers.path_lengths", inner.path_lengths
            )

        def __getattr__(self, name):
            # Router-specific state (``table``, LRU ``hits``/``misses``).
            if name == "_inner":
                raise AttributeError(name)
            return getattr(self._inner, name)

        def num_vertices(self) -> int:
            return self._inner.num_vertices()

        def state_bytes(self) -> int:
            return self._inner.state_bytes()

        def describe(self) -> str:
            return self._inner.describe()

    return TracedRouter()


class _TracedDriver:
    """Round driver of the compiled simulator kernels, one span per call."""

    __slots__ = ("schedule", "pop", "finish")

    def __init__(self, driver, rec: SpanRecorder):
        self.schedule = timed(rec, "kernels.schedule", driver.schedule)
        self.pop = timed(rec, "kernels.pop", driver.pop)
        self.finish = timed(rec, "kernels.finish", driver.finish)


def _traced_kernels(ns, rec: SpanRecorder):
    wrapped = {}
    for name, fn in vars(ns).items():
        if name == "make_round_driver":
            make = timed(rec, "kernels.make_round_driver", fn)
            wrapped[name] = lambda *args, _make=make: _TracedDriver(_make(*args), rec)
        else:
            wrapped[name] = timed(rec, f"kernels.{name}", fn)
    return SimpleNamespace(**wrapped)


class _TracedJson:
    """The server module's ``json`` with spans around ``loads``/``dumps``."""

    def __init__(self, rec: SpanRecorder):
        self.loads = timed(rec, "serve.server.json_loads", json.loads)
        self.dumps = timed(rec, "serve.server.json_dumps", json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


def _count_hit(rec, args, result):
    if result is not None:
        rec.add("otis.sweep.cache_hits")


def _count_acquire_fail(rec, args, result):
    if result is None:
        rec.add("fleet.leases.acquire_fails")


def install(rec: SpanRecorder):
    """Patch every seam; returns a function restoring the originals."""
    import repro.fleet.leases as leases
    import repro.kernels as kernels
    import repro.otis.search as search
    import repro.otis.sweep as sweep
    import repro.serve.registry as registry
    import repro.serve.server as server

    # ``repro.otis`` re-exports the function ``h_digraph`` under the name of
    # its module, so ``import ... as`` would bind the function.
    h_module = importlib.import_module("repro.otis.h_digraph")

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch_method(cls, attr, name, after=None):
        patch(cls, attr, timed(rec, name, cls.__dict__[attr], after))

    patch(h_module, "h_digraph", timed(rec, "otis.h_digraph", h_module.h_digraph))
    patch(search, "h_diameter", timed(rec, "otis.search.h_diameter", search.h_diameter))
    patch(search, "bfs_distances_regular",
          timed(rec, "graphs.traversal.bfs_forward", search.bfs_distances_regular))
    patch(search, "reverse_bfs_distances_regular",
          timed(rec, "graphs.traversal.bfs_reverse",
                search.reverse_bfs_distances_regular))
    patch(search, "batched_eccentricities",
          timed(rec, "graphs.apsp.sweep", search.batched_eccentricities))

    build = sweep.ChunkManifest.__dict__["build"].__func__
    patch(sweep.ChunkManifest, "build",
          classmethod(timed(rec, "otis.sweep.manifest_build", build)))
    patch_method(sweep.ChunkStore, "write", "otis.sweep.chunk_write")
    patch_method(sweep.ChunkStore, "read", "otis.sweep.chunk_read")
    patch_method(sweep.SplitVerdictCache, "get", "otis.sweep.cache_get", _count_hit)
    patch_method(sweep.SplitVerdictCache, "put", "otis.sweep.cache_put")
    patch_method(leases.LeaseManager, "try_acquire", "fleet.leases.try_acquire",
                 _count_acquire_fail)
    patch_method(leases.Lease, "release", "fleet.leases.release")

    original_get_kernels = kernels.get_kernels
    wrapped_kernels: dict[int, tuple[object, SimpleNamespace]] = {}

    def get_kernels(backend=None):
        ns = original_get_kernels(backend)
        if ns is None:
            return None
        entry = wrapped_kernels.get(id(ns))
        if entry is None:
            entry = wrapped_kernels[id(ns)] = (ns, _traced_kernels(ns, rec))
        return entry[1]

    patch(kernels, "get_kernels", get_kernels)

    original_make_router = registry.make_router
    patch(registry, "make_router",
          lambda graph, kind="auto", **kw: traced_router(
              original_make_router(graph, kind, **kw), rec))
    patch(server, "decode_query",
          timed(rec, "serve.protocol.decode_query", server.decode_query))
    patch(server, "answer_query",
          timed(rec, "serve.protocol.answer_query", server.answer_query))
    patch(server, "json", _TracedJson(rec))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------- metrics
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counters: dict, extra: dict) -> dict[str, float]:
    """The ``per_layer`` metric values from one traced run.

    ``extra`` carries what only the workload knows: ``process.cpu_s``,
    ``trace.overhead_ratio`` and the ``serve.server.*`` deltas of ``/stats``.
    """
    spans = summary["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def prefixed(prefix, field):
        return sum(v[field] for k, v in spans.items() if k.startswith(prefix))

    values = {
        "otis.h_digraph.calls": calls("otis.h_digraph"),
        "otis.h_digraph.s": total("otis.h_digraph"),
        "graphs.traversal.bfs_forward.calls": calls("graphs.traversal.bfs_forward"),
        "graphs.traversal.bfs_forward.s": total("graphs.traversal.bfs_forward"),
        "graphs.traversal.bfs_reverse.calls": calls("graphs.traversal.bfs_reverse"),
        "graphs.traversal.bfs_reverse.s": total("graphs.traversal.bfs_reverse"),
        "graphs.apsp.sweep.calls": calls("graphs.apsp.sweep"),
        "graphs.apsp.sweep.s": total("graphs.apsp.sweep"),
        "otis.search.h_diameter.self_s": self_s("otis.search.h_diameter"),
        "otis.search.sweep_ratio": _ratio(
            calls("graphs.apsp.sweep"), calls("otis.search.h_diameter")
        ),
        "otis.sweep.manifest_build.s": total("otis.sweep.manifest_build"),
        "otis.sweep.chunk_write.calls": calls("otis.sweep.chunk_write"),
        "otis.sweep.chunk_write.s": total("otis.sweep.chunk_write"),
        "otis.sweep.chunk_read.s": total("otis.sweep.chunk_read"),
        "otis.sweep.cache_get.calls": calls("otis.sweep.cache_get"),
        "otis.sweep.cache_hit_ratio": _ratio(
            counters.get("otis.sweep.cache_hits", 0.0), calls("otis.sweep.cache_get")
        ),
        "otis.sweep.cache_put.calls": calls("otis.sweep.cache_put"),
        "otis.sweep.cache_put.s": total("otis.sweep.cache_put"),
        "fleet.leases.try_acquire.calls": calls("fleet.leases.try_acquire"),
        "fleet.leases.try_acquire.s": total("fleet.leases.try_acquire"),
        "fleet.leases.acquire_fail_ratio": _ratio(
            counters.get("fleet.leases.acquire_fails", 0.0),
            calls("fleet.leases.try_acquire"),
        ),
        "fleet.leases.release.s": total("fleet.leases.release"),
        "fleet.driver.run_fleet.self_s": self_s("fleet.driver.run_fleet"),
        "simulation.workloads.make_workload.s": total("simulation.workloads.make_workload"),
        "simulation.scenarios.traffic.s": total("simulation.scenarios.traffic"),
        "simulation.network.construct.s": total("simulation.network.construct"),
        "simulation.network.run.self_s": self_s("simulation.network.run"),
        "simulation.network.batches": counters.get("simulation.network.batches", 0.0),
        "simulation.network.events_per_batch": _ratio(
            counters.get("simulation.network.events", 0.0),
            counters.get("simulation.network.batches", 0.0),
        ),
        "simulation.network.hops": counters.get("simulation.network.hops", 0.0),
        "simulation.scenarios.rerouted_hops": counters.get(
            "simulation.scenarios.rerouted_hops", 0.0
        ),
        "simulation.scenarios.retransmits": counters.get(
            "simulation.scenarios.retransmits", 0.0
        ),
        "simulation.scenarios.delivered_ratio": _ratio(
            counters.get("simulation.scenarios.delivered", 0.0),
            counters.get("simulation.scenarios.messages", 0.0),
        ),
        "routing.routers.next_hops.calls": calls("routing.routers.next_hops"),
        "routing.routers.next_hops.pairs": counters.get(
            "routing.routers.next_hops.pairs", 0.0
        ),
        "routing.routers.next_hops.s": total("routing.routers.next_hops"),
        "routing.routers.next_hop.calls": calls("routing.routers.next_hop"),
        "routing.routers.next_hop.s": total("routing.routers.next_hop"),
        "kernels.calls": prefixed("kernels.", "calls"),
        "kernels.s": prefixed("kernels.", "s"),
        "serve.protocol.decode_query.calls": calls("serve.protocol.decode_query"),
        "serve.protocol.decode_query.s": total("serve.protocol.decode_query"),
        "serve.protocol.answer_query.s": total("serve.protocol.answer_query"),
        "serve.server.json.s": total("serve.server.json_loads")
        + total("serve.server.json_dumps"),
        "serve.client.encode.s": total("serve.client.encode"),
        "serve.server.requests": extra.get("serve.server.requests", 0.0),
        "serve.server.batches": extra.get("serve.server.batches", 0.0),
        "serve.server.pairs_per_batch": _ratio(
            extra.get("serve.server.pairs", 0.0), extra.get("serve.server.batches", 0.0)
        ),
        "serve.server.shed": extra.get("serve.server.shed", 0.0),
        "serve.server.deadline_misses": extra.get("serve.server.deadline_misses", 0.0),
        "process.cpu_s": extra["process.cpu_s"],
        "trace.overhead_ratio": extra["trace.overhead_ratio"],
        "bench.traced_wall_s": summary["wall_s"],
        "bench.unattributed_s": summary["wall_s"] - summary["covered_s"],
        "bench.passes": extra["bench.passes"],
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = prefixed(layer + ".", "self_s")
    return {name: float(value) for name, value in values.items()}
