"""Serve-layer suite: registry, protocol, metrics, and end-to-end parity.

The load-bearing contract is **serve adds transport, never arithmetic**:
every batch reply must be bit-identical to querying the underlying router
directly.  The end-to-end classes enforce that over HTTP for all five
families (``B``, ``K``, ``RRK``, ``II``, ``H``) and three routers (the
whole table, closed form, the table filling columns on demand), for all
three ops (next-hop, path, ETA).  The remaining classes cover the wire-format validation, the registry
hot-reload semantics, group-commit batching, the metrics histogram, and the
CLI entry points.
"""

import asyncio
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.routing.paths import build_routing_table
from repro.routing import routers
from repro.routing.routers import (
    ClosedFormRouter,
    DenseTableRouter,
    Router,
    make_router,
)
from repro.serve import (
    BatchQuery,
    LatencyHistogram,
    ProtocolError,
    RouterRegistry,
    ServerThread,
    ServeMetrics,
    build_graph,
    decode_query,
    run_bench,
)
from repro.serve.bench import http_request
from repro.serve.protocol import (
    answer_query,
    check_range,
    reply_as_lists,
)
from repro.serve.server import INLINE_PAIRS
from repro.simulation.network import LinkModel

#: One spec per family, sized so every router kind (dense, closed-form)
#: can build it — the parity matrix of the end-to-end tests.
FAMILY_SPECS = {
    "B": "B(2,4)",
    "K": "K(2,3)",
    "RRK": "RRK(2,32)",
    "II": "II(2,16)",
    "H": "H(4,8,2)",
}
#: The router kinds the parity server hosts; ``"lru"`` is the ``"dense"``
#: table router in its on-demand mode (a store of three columns), which
#: concurrent requests fill and empty.
ROUTER_KINDS = ("dense", "closed-form", "lru")


def topology_name(family: str, kind: str) -> str:
    return f"{family.lower()}-{kind}"


def add_topology(registry, name, spec, kind):
    """``registry.add``, with ``"lru"`` as the on-demand table router."""
    if kind != "lru":
        return registry.add(name, spec, kind)
    with pytest.MonkeyPatch.context() as monkeypatch:
        n = build_graph(spec).num_vertices
        monkeypatch.setattr(routers, "TABLE_BUDGET_BYTES", 5 * n * 3)
        return registry.add(name, spec, "dense")


@pytest.fixture(scope="module")
def parity_server():
    """One server hosting every (family, router kind) combination."""
    registry = RouterRegistry()
    for family, spec in FAMILY_SPECS.items():
        for kind in ROUTER_KINDS:
            add_topology(registry, topology_name(family, kind), spec, kind)
    with ServerThread(registry) as server:
        yield server


def query(server, body, path="/v1/query"):
    return http_request(server.host, server.port, "POST", path, body)


def inflight(server) -> int:
    return http_request(server.host, server.port, "GET", "/stats")["inflight"]


class TestBuildGraph:
    def test_families(self):
        assert build_graph("B(2,3)").num_vertices == 8
        assert build_graph("K(2,3)").num_vertices == 12
        assert build_graph("RRK(2,12)").num_vertices == 12
        assert build_graph("II(2,12)").num_vertices == 12
        assert build_graph("H(2,4,2)").num_vertices == 4  # n = p*q/d

    def test_spaces_tolerated(self):
        assert build_graph("H(2, 4, 2)").num_vertices == 4

    @pytest.mark.parametrize(
        "bad", ["X(2,3)", "B(2;3)", "B", "B()", "B(2,3,4)", "H(2,4)"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            build_graph(bad)


class TestRegistry:
    def test_add_and_get(self):
        registry = RouterRegistry()
        entry = registry.add("demo", "B(2,3)", "dense")
        assert registry.get("demo") is entry
        assert entry.version == 1
        assert entry.router.kind == "dense"
        assert registry.names() == ["demo"]

    def test_unchanged_add_is_a_noop(self):
        registry = RouterRegistry()
        first = registry.add("demo", "B(2,3)")
        assert registry.add("demo", "B(2,3)") is first
        assert registry.get("demo").version == 1

    def test_changed_spec_bumps_version(self):
        registry = RouterRegistry()
        registry.add("demo", "B(2,3)")
        entry = registry.add("demo", "B(2,4)")
        assert entry.version == 2
        assert entry.graph.num_vertices == 16

    def test_unknown_router_kind_rejected(self):
        registry = RouterRegistry()
        with pytest.raises(ValueError, match="router kind"):
            registry.add("demo", "B(2,3)", "quantum")

    def test_snapshot_fields(self):
        registry = RouterRegistry()
        registry.add("demo", "B(2,3)", "dense")
        info = registry.snapshot()["demo"]
        assert info["spec"] == "B(2,3)"
        assert info["router"] == "dense"
        assert info["nodes"] == 8
        assert info["version"] == 1
        assert info["state_bytes"] >= 0
        with pytest.raises(ValueError, match="router kind"):
            registry.add("old", "B(2,3)", "lru")

    def test_spec_file_reload(self, tmp_path):
        spec_file = tmp_path / "topologies.json"
        spec_file.write_text(json.dumps({"alpha": "B(2,3)"}))
        registry = RouterRegistry()
        changed = registry.load_spec_file(spec_file)
        assert changed == ["alpha"]
        assert registry.get("alpha").version == 1

        # Unchanged file: reload is a no-op even when forced.
        assert registry.reload(force=True) == []

        # Rewrite: alpha changes spec, beta appears, with explicit router.
        spec_file.write_text(
            json.dumps(
                {
                    "alpha": "B(2,4)",
                    "beta": {"spec": "K(2,3)", "router": "dense"},
                }
            )
        )
        changed = registry.reload(force=True)
        assert sorted(changed) == ["alpha", "beta"]
        assert registry.get("alpha").version == 2
        assert registry.get("beta").router.kind == "dense"

        # Removal: names absent from the file are dropped.
        spec_file.write_text(json.dumps({"beta": "K(2,3)"}))
        changed = registry.reload(force=True)
        assert "alpha" in changed
        with pytest.raises(KeyError):
            registry.get("alpha")


class TestProtocolDecode:
    def test_pairs_form(self):
        q = decode_query(
            {"op": "next-hop", "topology": "t", "pairs": [[0, 1], [2, 3]]}
        )
        assert q.count == 2
        np.testing.assert_array_equal(q.sources, [0, 2])
        np.testing.assert_array_equal(q.targets, [1, 3])

    def test_sources_targets_form(self):
        q = decode_query(
            {"op": "eta", "topology": "t", "sources": [4], "targets": [5]}
        )
        assert q.count == 1 and q.op == "eta"

    @pytest.mark.parametrize(
        "bad, match",
        [
            ([], "JSON object"),
            ({"op": "teleport", "topology": "t", "pairs": []}, "unknown op"),
            ({"op": "path", "pairs": [[0, 1]]}, "topology"),
            ({"op": "path", "topology": "t"}, "pairs"),
            (
                {"op": "path", "topology": "t", "pairs": [[1, 2, 3]]},
                r"\[\[source, target\]",
            ),
            (
                {"op": "path", "topology": "t", "sources": [1], "targets": []},
                "equal length",
            ),
            (
                {"op": "path", "topology": "t", "sources": ["a"], "targets": ["b"]},
                "integer",
            ),
        ],
    )
    def test_malformed_queries_rejected(self, bad, match):
        with pytest.raises(ProtocolError, match=match):
            decode_query(bad)

    def test_max_pairs_enforced(self):
        with pytest.raises(ProtocolError, match="per-request limit"):
            decode_query(
                {"op": "path", "topology": "t", "pairs": [[0, 1]] * 5},
                max_pairs=4,
            )

    def test_out_of_range_rejected_at_admission(self):
        graph = build_graph("B(2,3)")
        router = make_router(graph)
        q = BatchQuery(
            op="next-hop",
            topology="t",
            sources=np.array([0]),
            targets=np.array([99]),
        )
        with pytest.raises(ProtocolError, match="out of range"):
            check_range(q, router.num_vertices())


def batch_paths(router, sources, targets):
    """The vertex lists a path query's reply carries (None unreachable)."""
    query = BatchQuery(op="path", topology="t", sources=sources, targets=targets)
    return answer_query(query, router)["paths"].tolist()


class TestBatchPaths:
    def test_matches_scalar_full_path(self):
        graph = build_graph("K(2,3)")
        router = make_router(graph)
        rng = np.random.default_rng(7)
        sources = rng.integers(graph.num_vertices, size=40)
        targets = rng.integers(graph.num_vertices, size=40)
        batched = batch_paths(router, sources, targets)
        for s, t, path in zip(sources, targets, batched):
            assert path == router.full_path(int(s), int(t))

    def test_unreachable_pairs_are_none_on_a_disconnected_digraph(self):
        graph = build_graph("H(4,16,2)")  # not strongly connected
        router = make_router(graph)
        rng = np.random.default_rng(7)
        sources = rng.integers(graph.num_vertices, size=40)
        targets = rng.integers(graph.num_vertices, size=40)
        batched = batch_paths(router, sources, targets)
        assert sum(path is None for path in batched) == 12
        for s, t, path in zip(sources, targets, batched):
            assert path == router.full_path(int(s), int(t))


def reference_decode(obj):
    """The ``np.asarray`` decode of a query's ``pairs`` or
    ``sources``+``targets``: ``(sources, targets)``, or the message of the
    :class:`ProtocolError` it raises."""
    if "pairs" in obj:
        try:
            pairs = np.asarray(obj["pairs"], dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as error:
            return f"pairs must be [[source, target], ...]: {error}"
        if pairs.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            return "pairs must be [[source, target], ...]"
        return pairs[:, 0].copy(), pairs[:, 1].copy()
    columns = []
    for what in ("sources", "targets"):
        try:
            array = np.asarray(obj[what], dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as error:
            return f"{what} must be an array of integers: {error}"
        if array.ndim != 1:
            return f"{what} must be one-dimensional"
        columns.append(array)
    if columns[0].size != columns[1].size:
        return "sources and targets must have equal length"
    return tuple(columns)


#: JSON scalars: ints in and far beyond int64, floats, bools, digit
#: strings (some past int64 too), other text and None.
SCALARS = st.one_of(
    st.integers(-5, 40),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.booleans(),
    st.from_regex(r"\A-?[0-9]{1,21}\Z"),
    st.text(max_size=3),
    st.none(),
)
#: Any JSON value over them: nested and ragged lists, objects with digit keys.
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.from_regex(r"\A[0-9]{1,2}\Z"), inner, max_size=2),
    max_leaves=10,
)
PAIRS = st.one_of(
    st.lists(st.lists(st.integers(0, 99), min_size=2, max_size=2), max_size=6),
    st.lists(st.lists(SCALARS, min_size=2, max_size=2), max_size=6),
    st.lists(st.lists(SCALARS, min_size=1, max_size=3), max_size=4),
    st.lists(VALUES, max_size=4),
    VALUES,
)
FUZZ_QUERIES = st.one_of(
    st.builds(lambda pairs: {"pairs": pairs}, PAIRS),
    st.builds(
        lambda sources, targets: {"sources": sources, "targets": targets},
        st.one_of(st.lists(SCALARS, max_size=4), VALUES),
        st.one_of(st.lists(SCALARS, max_size=4), VALUES),
    ),
)


class TestDecodeQueryFuzz:
    @settings(max_examples=600, deadline=None)
    @given(FUZZ_QUERIES)
    def test_decode_equals_the_reference_or_refuses_with_its_message(self, fields):
        # Only ProtocolError may escape, and only with the reference's words.
        obj = {"op": "path", "topology": "t", **fields}
        expected = reference_decode(obj)
        if isinstance(expected, str):
            with pytest.raises(ProtocolError) as refused:
                decode_query(obj)
            assert str(refused.value) == expected
            return
        query = decode_query(obj)
        for want, have in zip(expected, (query.sources, query.targets)):
            assert have.dtype == np.int64 and have.ndim == 1
            assert have.flags.c_contiguous
            assert have.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "pairs",
        [
            [[1, 2, 3], [4]],  # ragged with the flat length of two pairs
            ["12", "34"],  # strings of two digits
            [{"1": 0, "2": 0}],  # an object with two digit keys
            [(1, 2), [3, 4]],  # a tuple is no JSON list
            [[1, [2]]],
            [[2**63, 0]],
        ],
    )
    def test_shapes_beside_the_fast_path_get_the_reference_answer(self, pairs):
        obj = {"op": "path", "topology": "t", "pairs": pairs}
        expected = reference_decode(obj)
        if isinstance(expected, str):
            with pytest.raises(ProtocolError) as refused:
                decode_query(obj)
            assert str(refused.value) == expected
        else:
            query = decode_query(obj)
            assert query.sources.tolist() == expected[0].tolist()
            assert query.targets.tolist() == expected[1].tolist()


class WalkingRouter(Router):
    """Another router's next hops under the base-class ``paths`` walk."""

    def __init__(self, inner):
        self.inner = inner

    def next_hops(self, sources, targets):
        return self.inner.next_hops(sources, targets)

    def num_vertices(self):
        return self.inner.num_vertices()


#: (spec, router kind) of the batch_paths parity: every family under every
#: kind, and a digraph with unreachable pairs under both table kinds.
BATCH_PATH_CASES = [
    (spec, kind) for spec in FAMILY_SPECS.values() for kind in ROUTER_KINDS
] + [("H(4,16,2)", "dense"), ("H(4,16,2)", "lru")]


class TestBatchPathsParity:
    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("spec, kind", BATCH_PATH_CASES)
    def test_batch_paths_match_the_generic_walk(self, spec, kind, backend, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, backend)
        graph = build_graph(spec)
        n = graph.num_vertices
        if kind == "lru":
            monkeypatch.setattr(routers, "TABLE_BUDGET_BYTES", 5 * n * 3)
        router = make_router(graph, "dense" if kind == "lru" else kind)
        rng = np.random.default_rng(5)
        sources = np.concatenate((rng.integers(n, size=300), np.arange(8)))
        targets = np.concatenate((rng.integers(n, size=300), np.arange(8)))
        expected = batch_paths(WalkingRouter(router), sources, targets)
        assert batch_paths(router, sources, targets) == expected
        assert [path is None for path in expected] == (
            router.path_lengths(sources, targets) < 0
        ).tolist()
        assert expected[-1] == [7]


class TestLatencyHistogram:
    def test_percentiles_bracket_samples(self):
        hist = LatencyHistogram()
        for value in [0.001] * 90 + [0.1] * 10:
            hist.record(value)
        p50, p99 = hist.percentile(50), hist.percentile(99)
        # Bucket upper bounds: within one log-bucket ratio of the sample.
        assert 0.001 <= p50 <= 0.002
        assert 0.1 <= p99 <= 0.2
        assert abs(hist.mean() - (90 * 0.001 + 10 * 0.1) / 100) < 1e-12

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(50) is None
        assert hist.mean() is None

    def test_overflow_bucket(self):
        hist = LatencyHistogram(max_s=1.0, buckets=4)
        hist.record(50.0)
        assert hist.percentile(99) == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=1)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)


class TestServeMetrics:
    def test_record_and_snapshot(self):
        clock = iter(float(i) for i in range(100))
        metrics = ServeMetrics(window_s=10.0, clock=lambda: next(clock))
        metrics.record("next-hop", queries=100, seconds=0.01)
        metrics.record("next-hop", queries=50, seconds=0.02, error=True)
        metrics.record_batch(requests=3, pairs=150)
        snap = metrics.snapshot()
        endpoint = snap["endpoints"]["next-hop"]
        assert endpoint["requests"] == 2
        assert endpoint["queries"] == 150
        assert endpoint["errors"] == 1
        assert endpoint["latency_p50_s"] is not None
        assert snap["batching"]["batches"] == 1
        assert snap["batching"]["coalesced_requests"] == 3
        assert snap["queries_per_second"] == pytest.approx(15.0)

    def test_qps_window_expires(self):
        times = [0.0, 0.0, 100.0]
        metrics = ServeMetrics(window_s=10.0, clock=lambda: times.pop(0))
        metrics.record("op", queries=1000, seconds=0.001)
        assert metrics.queries_per_second() == 0.0


class TestEndToEndParity:
    """HTTP replies are bit-identical to direct router calls."""

    @pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
    @pytest.mark.parametrize("kind", ROUTER_KINDS)
    def test_all_ops_match_direct_router(self, parity_server, family, kind):
        graph = build_graph(FAMILY_SPECS[family])
        router = make_router(graph, "dense" if kind == "lru" else kind)
        n = graph.num_vertices
        rng = np.random.default_rng(42)
        sources = rng.integers(n, size=64)
        targets = rng.integers(n, size=64)
        pairs = np.stack([sources, targets], axis=1).tolist()
        name = topology_name(family, kind)

        reply = query(
            parity_server, {"op": "next-hop", "topology": name, "pairs": pairs}
        )
        assert reply["ok"] and reply["count"] == 64
        np.testing.assert_array_equal(
            reply["hops"], router.next_hops(sources, targets)
        )

        reply = query(
            parity_server, {"op": "path", "topology": name, "pairs": pairs}
        )
        assert reply["paths"] == batch_paths(router, sources, targets)

        reply = query(
            parity_server, {"op": "eta", "topology": name, "pairs": pairs}
        )
        lengths = router.path_lengths(sources, targets)
        np.testing.assert_array_equal(reply["lengths"], lengths)
        per_hop = LinkModel().latency + LinkModel().transmission_time
        expected = np.where(lengths < 0, -1.0, lengths * per_hop)
        np.testing.assert_array_equal(reply["etas"], expected)

    def test_dense_walk_lengths_match_distance_table(self):
        # The generic walk-based path_lengths equals the BFS distance table
        # (each next hop is one BFS step closer), which justifies the O(1)
        # DenseTableRouter.path_lengths override the eta endpoint uses.
        graph = build_graph("H(4,8,2)")
        table = build_routing_table(graph)
        dense = make_router(graph, "dense")
        closed = make_router(graph, "closed-form")
        n = graph.num_vertices
        s, t = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        s, t = s.ravel(), t.ravel()
        np.testing.assert_array_equal(
            dense.path_lengths(s, t), table.distance[s, t]
        )
        np.testing.assert_array_equal(
            closed.path_lengths(s, t), table.distance[s, t]
        )


class TestServerBehaviour:
    def test_healthz_lists_topologies(self, parity_server):
        reply = http_request(
            parity_server.host, parity_server.port, "GET", "/healthz"
        )
        assert reply["ok"]
        assert topology_name("B", "dense") in reply["topologies"]

    def test_stats_schema(self, parity_server):
        query(
            parity_server,
            {
                "op": "next-hop",
                "topology": topology_name("B", "dense"),
                "pairs": [[0, 1]],
            },
        )
        stats = http_request(
            parity_server.host, parity_server.port, "GET", "/stats"
        )
        assert stats["ok"]
        assert stats["uptime_s"] > 0
        assert "next-hop" in stats["endpoints"]
        info = stats["topologies"][topology_name("B", "lru")]
        assert info["spec"] == "B(2,4)" and info["router"] == "dense"

    def test_unknown_topology_is_404(self, parity_server):
        reply = query(
            parity_server,
            {"op": "next-hop", "topology": "nowhere", "pairs": [[0, 1]]},
        )
        assert not reply["ok"]
        assert "unknown topology" in reply["error"]

    def test_bad_op_is_rejected(self, parity_server):
        reply = query(
            parity_server,
            {"op": "teleport", "topology": "b-dense", "pairs": [[0, 1]]},
        )
        assert not reply["ok"] and "unknown op" in reply["error"]

    def test_out_of_range_is_rejected(self, parity_server):
        reply = query(
            parity_server,
            {"op": "next-hop", "topology": "b-dense", "pairs": [[0, 400]]},
        )
        assert not reply["ok"] and "out of range" in reply["error"]

    def test_unknown_route_is_404(self, parity_server):
        reply = http_request(
            parity_server.host, parity_server.port, "GET", "/nope"
        )
        assert not reply["ok"]

    def test_request_id_round_trips(self, parity_server):
        reply = query(
            parity_server,
            {
                "op": "next-hop",
                "topology": "b-dense",
                "pairs": [[0, 1]],
                "id": "req-17",
            },
        )
        assert reply["ok"] and reply["id"] == "req-17"

    def test_concurrent_requests_coalesce_and_stay_correct(self, router_gate):
        registry = RouterRegistry()
        registry.add("demo", "B(2,4)", "dense")
        graph = build_graph("B(2,4)")
        router = make_router(graph, "dense")
        # The gate holds the first router call until all 16 requests are in
        # flight, so the rest land in one bucket behind it.
        gate = router_gate(registry.get("demo").router)
        with ServerThread(registry, batch_pairs=10_000) as server:
            results = {}

            def one(index):
                s, t = index % 16, (index * 7 + 3) % 16
                results[index] = (
                    query(
                        server,
                        {
                            "op": "next-hop",
                            "topology": "demo",
                            "pairs": [[s, t]],
                        },
                    ),
                    int(router.next_hop(s, t)),
                )

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            gate.wait_until(lambda: inflight(server) == 16)
            gate.release()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            stats = http_request(server.host, server.port, "GET", "/stats")
        assert len(results) == 16
        for reply, expected in results.values():
            assert reply["ok"] and reply["hops"] == [expected]
        # At least one flush served several requests with one router call.
        assert stats["batching"]["coalesced_requests"] > 0
        assert stats["batching"]["batches"] < 16

    def test_hot_reload_over_http(self, tmp_path):
        spec_file = tmp_path / "topologies.json"
        spec_file.write_text(json.dumps({"live": "B(2,3)"}))
        registry = RouterRegistry()
        registry.load_spec_file(spec_file)
        # reload_interval_s=0 disables the periodic task; POST /reload only.
        with ServerThread(registry, reload_interval_s=0) as server:
            before = http_request(server.host, server.port, "GET", "/stats")
            assert before["topologies"]["live"]["nodes"] == 8
            spec_file.write_text(json.dumps({"live": "B(2,4)"}))
            reply = http_request(server.host, server.port, "POST", "/reload")
            assert reply["ok"] and reply["changed"] == ["live"]
            after = http_request(server.host, server.port, "GET", "/stats")
            assert after["topologies"]["live"]["nodes"] == 16
            assert after["topologies"]["live"]["version"] == 2


class TestGroupCommit:
    """Batches form from load alone: no timer, one router call per round."""

    def test_requests_behind_a_running_call_share_the_next_one(
        self, router_gate
    ):
        registry = RouterRegistry()
        registry.add("demo", "B(2,4)", "dense")
        router = make_router(build_graph("B(2,4)"), "dense")
        gate = router_gate(registry.get("demo").router)
        results = {}
        with ServerThread(registry, reload_interval_s=0) as server:

            def one(index):
                s, t = index % 16, (index * 7 + 3) % 16
                reply = query(
                    server,
                    {"op": "next-hop", "topology": "demo", "pairs": [[s, t]]},
                )
                results[index] = (reply, int(router.next_hop(s, t)))

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(16)
            ]
            threads[0].start()
            gate.wait_until(lambda: gate.calls == 1)  # first call is held
            for thread in threads[1:]:
                thread.start()
            gate.wait_until(lambda: inflight(server) == 16)
            gate.release()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            stats = http_request(server.host, server.port, "GET", "/stats")
        assert gate.calls == 2
        assert stats["batching"]["batches"] == 2
        assert stats["batching"]["coalesced_requests"] == 15
        assert len(results) == 16
        for reply, expected in results.values():
            assert reply["ok"] and reply["hops"] == [expected]

    def test_a_lone_request_is_flushed_without_a_timer(self, monkeypatch):
        registry = RouterRegistry()
        registry.add("demo", "B(2,4)", "dense")
        with ServerThread(registry, reload_interval_s=0) as server:
            loop = server._loop
            timers = []
            real = loop.call_later

            def call_later(*args, **kwargs):
                timers.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(loop, "call_later", call_later)
            reply = query(
                server,
                {"op": "next-hop", "topology": "demo", "pairs": [[0, 5]]},
            )
            stats = http_request(server.host, server.port, "GET", "/stats")
        assert reply["ok"]
        assert timers == []
        assert stats["batching"]["batches"] == 1


class TestInlineRounds:
    """A round of at most ``INLINE_PAIRS`` pairs on a lock-free router is
    answered on the event loop; a larger round, an on-demand table's round
    and a router that is not lock-free go to the executor."""

    @pytest.mark.parametrize(
        "kind, pairs, locked, inline",
        [
            ("closed-form", 16, False, True),
            ("dense", INLINE_PAIRS, False, True),
            ("closed-form", INLINE_PAIRS + 1, False, False),
            ("lru", 16, False, False),
            ("closed-form", 16, True, False),
        ],
    )
    def test_a_round_runs_where_its_cost_allows(
        self, kind, pairs, locked, inline, monkeypatch
    ):
        registry = RouterRegistry()
        add_topology(registry, "demo", "B(2,4)", kind)
        router = registry.get("demo").router
        cls = ClosedFormRouter if kind == "closed-form" else DenseTableRouter
        real = cls.next_hops
        threads = []

        def next_hops(self, sources, targets):
            threads.append(threading.current_thread().name)
            return real(self, sources, targets)

        monkeypatch.setattr(cls, "next_hops", next_hops)
        if locked:
            router.lock_free = lambda: False
        body = {
            "op": "next-hop",
            "topology": "demo",
            "pairs": [[i % 16, (7 * i + 3) % 16] for i in range(pairs)],
        }
        with ServerThread(registry, reload_interval_s=0) as server:
            reply = query(server, body)
        sources, targets = np.array(body["pairs"]).T
        assert reply["hops"] == real(router, sources, targets).tolist()
        assert len(threads) == 1
        assert (threads[0] == "repro-serve-loop") is inline

    @pytest.mark.parametrize("op", ["next-hop", "eta", "path"])
    def test_small_requests_decoded_together_share_one_inline_round(
        self, op, monkeypatch
    ):
        # group commit on the event loop: the requests decoded before the
        # flush task runs form one round and one router call
        registry = RouterRegistry()
        registry.add("demo", "B(2,4)", "closed-form")
        router = registry.get("demo").router
        calls = []
        name = {"next-hop": "next_hops", "eta": "path_lengths", "path": "paths"}[op]
        real = getattr(ClosedFormRouter, name)

        def recorded(self, sources, targets):
            calls.append((threading.current_thread().name, len(sources)))
            return real(self, sources, targets)

        monkeypatch.setattr(ClosedFormRouter, name, recorded)
        bodies = [
            {"op": op, "topology": "demo", "pairs": [[i, (5 * i + 3) % 16], [15 - i, i]]}
            for i in range(8)
        ]
        with ServerThread(registry, reload_interval_s=0) as server:

            async def together():
                return await asyncio.gather(
                    *(server.server._handle_query(json.dumps(b).encode()) for b in bodies)
                )

            answers = asyncio.run_coroutine_threadsafe(together(), server._loop).result(30)
            stats = http_request(server.host, server.port, "GET", "/stats")
        assert calls == [("repro-serve-loop", 16)]
        assert stats["batching"]["batches"] == 1
        assert stats["batching"]["coalesced_requests"] == 8
        monkeypatch.undo()
        version = registry.get("demo").version
        for body, (status, reply) in zip(bodies, answers):
            assert status == "200 OK"
            expected = answer_query(
                decode_query(body), router, link=LinkModel(), version=version
            )
            assert reply == (json.dumps(reply_as_lists(expected)) + "\n").encode()


class TestRunBench:
    def test_self_hosted_bench_round_trip(self):
        registry = RouterRegistry()
        registry.add("demo", "B(2,4)", "dense")
        with ServerThread(registry) as server:
            result = run_bench(
                server.host,
                server.port,
                topology="demo",
                messages=2000,
                batch_pairs=256,
                connections=2,
            )
        assert result.queries == 2000
        assert result.requests == 8
        assert result.qps > 0
        assert result.p50_s <= result.p99_s <= result.max_s
        entry = result.to_json()
        assert entry["wall_time_s"] > 0 and entry["qps"] > 0

    def test_unknown_topology_raises(self):
        registry = RouterRegistry()
        registry.add("demo", "B(2,3)")
        with ServerThread(registry) as server:
            with pytest.raises(ValueError, match="does not serve"):
                run_bench(server.host, server.port, topology="ghost")


class TestServeCli:
    def test_parse_topology_arg(self):
        from repro.cli import _parse_topology_arg

        assert _parse_topology_arg("prod", require_spec=False) == (
            "prod",
            None,
            "auto",
        )
        assert _parse_topology_arg(
            "prod=H(16,32,2):closed-form", require_spec=True
        ) == ("prod", "H(16,32,2)", "closed-form")
        # Colons only split off a known router kind; specs keep their text.
        assert _parse_topology_arg("a=B(2,6)", require_spec=True) == (
            "a",
            "B(2,6)",
            "auto",
        )
        with pytest.raises(ValueError):
            _parse_topology_arg("prod", require_spec=True)
        with pytest.raises(ValueError):
            _parse_topology_arg("=B(2,3)", require_spec=True)

    def test_bench_self_host_exit_zero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve",
                "bench",
                "--self-host",
                "--topology",
                "demo=B(2,4):dense",
                "--messages",
                "1000",
                "--batch",
                "256",
                "--connections",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "demo/next-hop" in out and "q/s" in out

    def test_bench_json_writes_and_gates(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        bench = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "serve",
                "bench",
                "--self-host",
                "--topology",
                "demo=B(2,4)",
                "--messages",
                "1000",
                "--batch",
                "256",
                "--json",
                str(bench),
            ]
        )
        assert code == 0
        entry = json.loads(bench.read_text())["serve_demo_next-hop_uniform"]
        assert entry["queries"] == 1000 and entry["qps"] > 0

    def test_stats_without_server_fails(self, capsys):
        from repro.cli import main

        # A port from the dynamic range nothing in the suite listens on.
        code = main(["serve", "stats", "--port", "1"])
        assert code == 1
        assert "stats failed" in capsys.readouterr().err

    def test_serve_without_mode_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 2
        assert "serve needs a mode" in capsys.readouterr().err

    def test_run_without_topologies_fails(self, capsys):
        from repro.cli import main

        assert main(["serve", "run"]) == 2
        assert "at least one" in capsys.readouterr().err
